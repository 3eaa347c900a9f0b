//! The DSM runtime: ties together the page manager, the communication module,
//! the protocol registry, shared-memory allocation and DSM thread creation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use dsmpm2_madeleine::NodeId;
use dsmpm2_pm2::{Engine, Pm2Cluster, Pm2Config, Pm2ThreadState};
use dsmpm2_sim::{SliceCell, SliceRc, TickOutbox};

use crate::costs::DsmCosts;
use crate::ctx::DsmThreadCtx;
use crate::frames::{FrameStore, Spare};
use crate::msg::DsmMsg;
use crate::page::{
    pages_covering, validate_line_size, Access, DsmAddr, PageId, PageMap, Unit, PAGE_SIZE,
    SHARED_BASE,
};
use crate::page_table::PageTable;
use crate::protocol::{DsmProtocol, ProtocolId};
use crate::stats::{DsmStats, DsmStatsSnapshot};
use crate::sync::{BarrierId, BarrierState, LockId, LockState};

/// Cluster-wide information about one page, held once for every node: the
/// one record of its home, its protocol and its line size. A fault and a
/// message both dispatch on the protocol named here. Allocation sets it; a
/// [`DsmRuntime::switch_region_protocol`] rewrites the protocol (and clamps
/// the line size to whole pages when the new protocol needs it), and the
/// home never changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageMeta {
    /// Home node of the page.
    pub home: NodeId,
    /// Protocol managing the page.
    pub protocol: ProtocolId,
    /// Coherence-line size of the page (`PAGE_SIZE` at the default
    /// whole-page granularity).
    pub line_size: usize,
}

/// Placement policy for the pages of a DSM allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HomePolicy {
    /// Pages are homed round-robin across the nodes (the default: it spreads
    /// both storage and service load).
    #[default]
    RoundRobin,
    /// Every page is homed on one fixed node.
    Fixed(NodeId),
    /// The allocation is split into one contiguous block of pages per node.
    Block,
}

/// Attributes of a DSM allocation (the analogue of `dsm_attr_t`).
#[derive(Clone, Copy, Debug, Default)]
pub struct DsmAttr {
    /// Protocol managing the allocated pages; `None` selects the default
    /// protocol installed with [`DsmRuntime::set_default_protocol`].
    pub protocol: Option<ProtocolId>,
    /// Home placement of the allocated pages.
    pub home: HomePolicy,
}

impl DsmAttr {
    /// Attribute selecting an explicit protocol.
    pub fn with_protocol(protocol: ProtocolId) -> Self {
        DsmAttr {
            protocol: Some(protocol),
            home: HomePolicy::default(),
        }
    }

    /// Set the home placement policy.
    pub fn home(mut self, policy: HomePolicy) -> Self {
        self.home = policy;
        self
    }
}

/// The cluster-wide page directory, and which protocols it names.
struct Directory {
    /// Where the next allocation starts: regions are page-aligned and back
    /// to back from [`SHARED_BASE`].
    next_addr: u64,
    pages: PageMap<PageMeta>,
    /// Number of pages each protocol manages, indexed by protocol id.
    pages_of: Vec<usize>,
    /// The protocols managing at least one page, ascending. Replaced, never
    /// edited: whoever walks it across a yield keeps the set it started with.
    in_use: SliceRc<[ProtocolId]>,
}

impl Default for Directory {
    fn default() -> Self {
        Directory {
            next_addr: SHARED_BASE,
            pages: PageMap::default(),
            pages_of: Vec::new(),
            in_use: SliceRc::default(),
        }
    }
}

impl Directory {
    /// Account for `pages` pages that `to` manages from now on, taken from
    /// `from` unless they are newly allocated.
    fn account(&mut self, from: Option<ProtocolId>, to: ProtocolId, pages: usize) {
        if self.pages_of.len() <= to.0 {
            self.pages_of.resize(to.0 + 1, 0);
        }
        self.pages_of[to.0] += pages;
        if let Some(from) = from {
            self.pages_of[from.0] -= pages;
        }
        let in_use = self.pages_of.iter().enumerate();
        self.in_use = in_use
            .filter(|(_, &pages)| pages > 0)
            .map(|(id, _)| ProtocolId(id))
            .collect();
    }
}

/// The registered protocols. Registration only appends and a protocol never
/// moves once placed — write-once cells, like madeleine's hooks — so a
/// lookup hands out a plain borrow, valid as long as the runtime, and takes
/// no count. Id `i` lives in segment `ilog2(i + 1)`, which has room for
/// `2^segment` protocols and is allocated by the registration that first
/// needs it.
struct ProtocolRegistry {
    segments: [OnceLock<Segment>; usize::BITS as usize],
    /// Number of protocols registered so far: the next id.
    len: SliceCell<usize>,
}

type Segment = Box<[OnceLock<Arc<dyn DsmProtocol>>]>;

impl ProtocolRegistry {
    fn new() -> Self {
        ProtocolRegistry {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: SliceCell::new(0),
        }
    }

    /// Segment and position within it of protocol `id`.
    fn locate(id: usize) -> Option<(usize, usize)> {
        let slot = id.checked_add(1)?;
        let segment = slot.ilog2() as usize;
        Some((segment, slot - (1 << segment)))
    }

    fn get(&self, id: usize) -> Option<&dyn DsmProtocol> {
        let (segment, at) = Self::locate(id)?;
        let protocol = self.segments[segment].get()?[at].get()?;
        Some(&**protocol)
    }

    fn push(&self, protocol: Arc<dyn DsmProtocol>) -> usize {
        let mut len = self.len.borrow();
        let id = *len;
        let (segment, at) = Self::locate(id).expect("fewer than usize::MAX protocols");
        let cells = self.segments[segment]
            .get_or_init(|| (0..1usize << segment).map(|_| OnceLock::new()).collect());
        if cells[at].set(protocol).is_err() {
            unreachable!("protocol id {id} handed out twice");
        }
        *len += 1;
        id
    }

    fn len(&self) -> usize {
        *self.len.borrow()
    }

    /// Every registered protocol, in registration order.
    fn iter(&self) -> impl Iterator<Item = &dyn DsmProtocol> {
        (0..).map_while(|id| self.get(id))
    }
}

pub(crate) struct RuntimeInner {
    cluster: Pm2Cluster,
    costs: DsmCosts,
    /// Coherence messages parked until the end of the instant they were sent
    /// at, per (from, to) link (see `DsmRuntime::send_coherence`).
    pub(crate) outbox: SliceRc<TickOutbox<(NodeId, NodeId), DsmMsg>>,
    pub(crate) services: crate::comm::DsmServices,
    /// Name of the threads serving the sub-messages of a coherence batch on
    /// each node (`dsm-batch@N<k>`).
    pub(crate) batch_thread_names: Vec<SliceRc<str>>,
    /// Each node's page table, its frames in the same slots.
    nodes: Vec<PageTable>,
    /// The page buffers the nodes gave back, for any node to reuse.
    spare: SliceCell<Spare>,
    directory: SliceCell<Directory>,
    protocols: ProtocolRegistry,
    default_protocol: AtomicUsize,
    /// Every lock and barrier created so far, in order: ids start at 1, so
    /// the one with id `i` is at index `i - 1` and a new one's id is the
    /// table's length once it is in.
    locks: SliceCell<Vec<SliceRc<LockState>>>,
    barriers: SliceCell<Vec<SliceRc<BarrierState>>>,
    /// Every DSM counter but the nodes' hit counters.
    counters: SliceCell<DsmStatsSnapshot>,
    verify_hooks: Option<Arc<dyn crate::verify::VerifyHooks>>,
}

const NO_DEFAULT: usize = usize::MAX;

/// Handle on the DSM runtime. Cheap to clone — one plain count (a
/// [`SliceRc`]) — and all clones refer to the same distributed shared
/// memory.
pub struct DsmRuntime {
    inner: SliceRc<RuntimeInner>,
}

impl Clone for DsmRuntime {
    fn clone(&self) -> Self {
        DsmRuntime {
            inner: SliceRc::clone(&self.inner),
        }
    }
}

impl DsmRuntime {
    /// Boot a PM2 cluster with `config` and install the DSM layer on it.
    pub fn new(engine: &Engine, config: Pm2Config) -> Self {
        Self::with_cluster_and_costs(Pm2Cluster::new(engine, config), DsmCosts::default())
    }

    /// Install the DSM layer with an explicit page-transfer overhead (the
    /// overhead sweep of the bench crate's ablation 1).
    pub fn with_cluster_and_costs(cluster: Pm2Cluster, costs: DsmCosts) -> Self {
        let nodes: Vec<PageTable> = cluster.topology().nodes().map(PageTable::new).collect();
        let batch_thread_names = cluster
            .topology()
            .nodes()
            .map(|n| format!("dsm-batch@{n}").into())
            .collect();
        // Cyclic: the services registered on the cluster serve this runtime,
        // which they hold weakly.
        let outbox = SliceRc::new(TickOutbox::new());
        let inner = SliceRc::new_cyclic(|weak| RuntimeInner {
            services: crate::comm::register_dsm_services(&cluster, weak, &outbox),
            outbox,
            batch_thread_names,
            cluster,
            costs,
            spare: SliceCell::new(Spare::for_nodes(nodes.len())),
            nodes,
            directory: SliceCell::default(),
            protocols: ProtocolRegistry::new(),
            default_protocol: AtomicUsize::new(NO_DEFAULT),
            locks: SliceCell::default(),
            barriers: SliceCell::default(),
            counters: SliceCell::default(),
            verify_hooks: crate::verify::global_verify_hooks(),
        });
        DsmRuntime { inner }
    }

    /// The PM2 cluster this DSM runs on.
    pub fn cluster(&self) -> &Pm2Cluster {
        &self.inner.cluster
    }

    pub(crate) fn inner(&self) -> &RuntimeInner {
        &self.inner
    }

    #[cfg(test)]
    fn downgrade(&self) -> dsmpm2_sim::SliceWeak<RuntimeInner> {
        SliceRc::downgrade(&self.inner)
    }

    /// Verify-hooks observer captured at construction, if one was installed.
    pub(crate) fn hooks(&self) -> Option<&Arc<dyn crate::verify::VerifyHooks>> {
        self.inner.verify_hooks.as_ref()
    }

    pub(crate) fn from_inner(inner: SliceRc<RuntimeInner>) -> DsmRuntime {
        DsmRuntime { inner }
    }

    /// Number of cluster nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.cluster.num_nodes()
    }

    /// The runtime's settable cost, the page-transfer overhead; every other
    /// cost is a constant of [`crate::costs`].
    pub fn costs(&self) -> &DsmCosts {
        &self.inner.costs
    }

    /// DSM statistics.
    pub fn stats(&self) -> DsmStats<'_> {
        DsmStats::new(&self.inner.counters, &self.inner.nodes)
    }

    /// The page table of `node`.
    #[inline]
    pub fn page_table(&self, node: NodeId) -> &PageTable {
        &self.inner.nodes[node.index()]
    }

    /// The frames of `node`: the frame-side methods over its page table's
    /// slots.
    pub fn frames(&self, node: NodeId) -> FrameStore<'_> {
        FrameStore::new(self.page_table(node), &self.inner.spare)
    }

    // ----- protocol registry -------------------------------------------------

    /// Register a protocol and return its identifier (the analogue of
    /// `dsm_create_protocol`).
    pub fn register_protocol(&self, protocol: Arc<dyn DsmProtocol>) -> ProtocolId {
        ProtocolId(self.inner.protocols.push(protocol))
    }

    /// Install `protocol` as the default for subsequent allocations
    /// (`pm2_dsm_set_default_protocol`).
    pub fn set_default_protocol(&self, protocol: ProtocolId) {
        assert!(
            protocol.0 < self.inner.protocols.len(),
            "cannot set unregistered {protocol} as default"
        );
        self.inner
            .default_protocol
            .store(protocol.0, Ordering::SeqCst);
    }

    /// The current default protocol.
    ///
    /// # Panics
    /// Panics if no default protocol was installed.
    pub fn default_protocol(&self) -> ProtocolId {
        let idx = self.inner.default_protocol.load(Ordering::SeqCst);
        assert!(
            idx != NO_DEFAULT,
            "no default protocol installed; call set_default_protocol first"
        );
        ProtocolId(idx)
    }

    /// Look up a registered protocol.
    pub fn protocol(&self, id: ProtocolId) -> &dyn DsmProtocol {
        self.inner
            .protocols
            .get(id.0)
            .unwrap_or_else(|| panic!("unknown protocol {id}"))
    }

    /// Find a registered protocol by name.
    pub fn protocol_by_name(&self, name: &str) -> Option<ProtocolId> {
        self.inner
            .protocols
            .iter()
            .position(|p| p.name() == name)
            .map(ProtocolId)
    }

    /// The protocol managing `page`.
    pub fn protocol_for_page(&self, page: PageId) -> &dyn DsmProtocol {
        let meta = self.page_meta(page);
        self.protocol(meta.protocol)
    }

    /// The distinct protocols currently managing at least one page, in
    /// registration order. Lock and barrier hooks are invoked once per
    /// protocol in use. The set is kept up to date where allocation and
    /// [`DsmRuntime::switch_region_protocol`] change the directory, so asking
    /// for it copies and allocates nothing.
    pub fn protocols_in_use(&self) -> SliceRc<[ProtocolId]> {
        SliceRc::clone(&self.inner.directory.borrow().in_use)
    }

    /// Cluster-wide static information about `page`.
    pub fn page_meta(&self, page: PageId) -> PageMeta {
        self.inner
            .directory
            .borrow()
            .pages
            .get(page)
            .copied()
            .unwrap_or_else(|| panic!("{page} is not part of any DSM allocation"))
    }

    /// True if `page` belongs to a DSM allocation.
    pub fn is_dsm_page(&self, page: PageId) -> bool {
        self.inner.directory.borrow().pages.get(page).is_some()
    }

    // ----- allocation --------------------------------------------------------

    /// Allocate `bytes` of shared memory managed by the protocol and placement
    /// selected by `attr` (the analogue of `dsm_malloc`), at the cluster's
    /// coherence granularity ([`Pm2Config::granularity`], whole pages when
    /// unset or when the protocol does not support sub-page coherence,
    /// [`DsmProtocol::supports_subpage`]). Returns the iso-address of the
    /// first byte; the memory is zero-initialised.
    pub fn dsm_malloc(&self, bytes: u64, attr: DsmAttr) -> DsmAddr {
        assert!(bytes > 0, "cannot allocate zero bytes of shared memory");
        let protocol = attr.protocol.unwrap_or_else(|| self.default_protocol());
        assert!(
            protocol.0 < self.inner.protocols.len(),
            "allocation references unregistered {protocol}"
        );
        let requested = self.inner.cluster.config().granularity;
        let requested = validate_line_size(requested.unwrap_or(PAGE_SIZE));
        let proto = self.protocol(protocol);
        let records_writes = proto.records_writes();
        let line_size = if proto.supports_subpage() {
            requested
        } else {
            PAGE_SIZE
        };
        let num_nodes = self.num_nodes();
        let mut directory = self.inner.directory.borrow();
        let base = DsmAddr(directory.next_addr);
        let pages = pages_covering(base, bytes);
        directory.next_addr += pages.len() as u64 * PAGE_SIZE as u64;
        directory.account(None, protocol, pages.len());
        for (i, &page) in pages.iter().enumerate() {
            let home = match attr.home {
                HomePolicy::RoundRobin => NodeId(i % num_nodes),
                HomePolicy::Fixed(node) => {
                    assert!(
                        self.inner.cluster.topology().contains(node),
                        "home {node} is not part of the cluster"
                    );
                    node
                }
                HomePolicy::Block => NodeId((i * num_nodes) / pages.len()),
            };
            directory.pages.insert(
                page,
                PageMeta {
                    home,
                    protocol,
                    line_size,
                },
            );
            for node in self.inner.cluster.topology().nodes() {
                self.page_table(node)
                    .register_lines(page, home, records_writes, line_size);
            }
            self.grant_to_home(page, home, line_size, 0);
            self.frames(home).ensure_zeroed(page);
        }
        base
    }

    /// Put the fresh entries of `page` on its home node in their initial
    /// state: the home owns every unit, writable, at `version`.
    fn grant_to_home(&self, page: PageId, home: NodeId, line_size: usize, version: u64) {
        for unit in Unit::all_of(page, line_size) {
            self.page_table(home).update(unit, |e| {
                e.access = Access::Write;
                e.owned = true;
                e.prob_owner = home;
                e.copyset.insert(home);
                e.version = version;
            });
        }
    }

    /// Allocate the "static" shared data area (the `BEGIN_DSM_DATA` /
    /// `END_DSM_DATA` section of a DSM-PM2 program), managed by the default
    /// protocol and homed on node 0.
    pub fn dsm_static_area(&self, bytes: u64) -> DsmAddr {
        self.dsm_malloc(
            bytes,
            DsmAttr {
                protocol: None,
                home: HomePolicy::Fixed(NodeId(0)),
            },
        )
    }

    /// Switch the `bytes`-byte region starting at `addr` from its current
    /// protocol to `new_protocol`, returning the number of pages switched.
    ///
    /// The paper (§2.3) notes that DSM-PM2 has no dedicated support for
    /// switching a memory area between protocols within a run, but that it
    /// "can be achieved if needed through a careful synchronization at the
    /// program level (e.g. through barriers)", because the switch updates the
    /// distributed page table on every node. This helper performs exactly
    /// that table update; the *caller* is responsible for keeping every
    /// application thread away from the region while it runs (typically by
    /// bracketing it between two barriers), as in the original system.
    ///
    /// To hand the region over in a clean state, each page is reset to its
    /// home-owned initial state: the home node keeps the authoritative copy
    /// (with write access), every other node drops its copy and its rights.
    ///
    /// # Panics
    /// Panics if the region is not entirely covered by DSM allocations, if
    /// `new_protocol` is not registered, or if a page still has outstanding
    /// protocol activity (a fetch or acknowledgement in flight), which
    /// indicates the required synchronization was not respected.
    pub fn switch_region_protocol(
        &self,
        addr: DsmAddr,
        bytes: u64,
        new_protocol: ProtocolId,
    ) -> usize {
        assert!(
            new_protocol.0 < self.inner.protocols.len(),
            "cannot switch to unregistered {new_protocol}"
        );
        let pages = pages_covering(addr, bytes);
        let proto = self.protocol(new_protocol);
        let (new_supports_subpage, records_writes) =
            (proto.supports_subpage(), proto.records_writes());
        let mut directory = self.inner.directory.borrow();
        for &page in &pages {
            let meta = directory
                .pages
                .get_mut(page)
                .unwrap_or_else(|| panic!("{page} is not part of any DSM allocation"));
            let (home, old_protocol) = (meta.home, meta.protocol);
            let old_line_size = meta.line_size;
            // A sub-page region keeps its granularity if the new protocol
            // handles it, otherwise it is clamped back to whole pages.
            let new_line_size = if new_supports_subpage {
                old_line_size
            } else {
                PAGE_SIZE
            };
            meta.protocol = new_protocol;
            meta.line_size = new_line_size;
            directory.account(Some(old_protocol), new_protocol, 1);
            let units: Vec<Unit> = Unit::all_of(page, old_line_size).collect();
            for node in self.inner.cluster.topology().nodes() {
                for &unit in &units {
                    let quiescent = self
                        .page_table(node)
                        .read(unit, |e| !e.pending_fetch && e.pending_acks == 0);
                    assert!(
                        quiescent,
                        "protocol switch of {page} raced with in-flight protocol activity on node \
                         {node}; synchronize (e.g. with barriers) before switching"
                    );
                }
            }
            // Consolidate every remote copy into the home frame before
            // resetting rights, so no write is lost across the switch.
            let home_frames = self.frames(home);
            home_frames.ensure_zeroed(page);
            for node in self.inner.cluster.topology().nodes() {
                if node == home {
                    continue;
                }
                let frames = self.frames(node);
                if crate::mutant::active("doomed_frame_write") {
                    // Historical bug: the switch evicted remote frames up
                    // front, dooming their modified contents before the
                    // consolidation below could merge them home.
                    frames.evict(page);
                }
                if !frames.has(page) {
                    continue;
                }
                let recorded = frames.has_recorded(page);
                let mut twinned = false;
                for &unit in &units {
                    let (span, holds_reference) = self.page_table(node).read(unit, |e| {
                        (e.line_span(), e.access == Access::Write || e.owned)
                    });
                    if frames.has_twin(unit) {
                        // Multiple-writer replica: its modifications relative
                        // to the twin merge into the home copy.
                        twinned = true;
                        home_frames.apply_diff(page, &frames.take_twin_diff(unit, span.0));
                    } else if !recorded && holds_reference {
                        // Owner under a single-writer protocol: there is no
                        // twin, the held span is authoritative — also when
                        // serving read copies downgraded the owner's own
                        // access to read-only.
                        home_frames.install(unit, span, frames.snapshot(page, span));
                    }
                }
                if recorded && !twinned {
                    home_frames.apply_diff(page, &frames.take_recorded_diff(page));
                }
                frames.evict(page);
            }
            if new_line_size == old_line_size {
                // Same geometry: reset entries in place (preserving version
                // and ownership-succession history, as the page-granularity
                // switch always has).
                for node in self.inner.cluster.topology().nodes() {
                    let is_home = node == home;
                    for &unit in &units {
                        self.page_table(node).update(unit, |e| {
                            e.records_writes = records_writes;
                            e.access = if is_home { Access::Write } else { Access::None };
                            e.owned = is_home;
                            e.prob_owner = home;
                            e.copyset.clear();
                            e.modified_since_release = false;
                            if is_home {
                                e.copyset.insert(home);
                                e.version += 1;
                            }
                        });
                    }
                }
            } else {
                // Geometry change (sub-page region clamped back to whole
                // pages): rebuild the entries at the new line size; the
                // home's frame stays in its slot.
                let version = self.page_table(home).read(Unit::whole(page), |e| e.version) + 1;
                for node in self.inner.cluster.topology().nodes() {
                    self.page_table(node)
                        .register_lines(page, home, records_writes, new_line_size);
                }
                self.grant_to_home(page, home, new_line_size, version);
            }
        }
        pages.len()
    }

    // ----- threads -----------------------------------------------------------

    /// Spawn a DSM application thread on `node`. The closure receives a
    /// [`DsmThreadCtx`] giving access to shared memory, locks, barriers and
    /// thread migration.
    pub fn spawn_dsm_thread<F>(
        &self,
        node: NodeId,
        name: impl Into<String>,
        f: F,
    ) -> Arc<Pm2ThreadState>
    where
        F: FnOnce(&mut DsmThreadCtx<'_, '_>) + Send + 'static,
    {
        let runtime = self.clone();
        self.inner.cluster.spawn_thread_on(node, name, move |pm2| {
            let mut ctx = DsmThreadCtx::new(pm2, runtime);
            f(&mut ctx);
        })
    }

    // ----- synchronization objects -------------------------------------------

    /// Create a DSM lock managed by `manager` (or by a node chosen round-robin
    /// if `None`).
    pub fn create_lock(&self, manager: Option<NodeId>) -> LockId {
        let mut locks = self.inner.locks.borrow();
        let id = locks.len() + 1;
        let manager = manager.unwrap_or(NodeId(id % self.num_nodes()));
        locks.push(SliceRc::new(LockState::new(manager)));
        LockId(id as u64)
    }

    /// Create a DSM barrier for `parties` participants, managed by `manager`
    /// (or node 0 if `None`).
    pub fn create_barrier(&self, parties: usize, manager: Option<NodeId>) -> BarrierId {
        let mut barriers = self.inner.barriers.borrow();
        let manager = manager.unwrap_or(NodeId(0));
        barriers.push(SliceRc::new(BarrierState::new(manager, parties)));
        BarrierId(barriers.len() as u64)
    }

    pub(crate) fn lock_state(&self, lock: LockId) -> SliceRc<LockState> {
        let locks = self.inner.locks.borrow();
        by_id(&locks, lock.0).unwrap_or_else(|| panic!("unknown DSM lock {lock:?}"))
    }

    pub(crate) fn barrier_state(&self, barrier: BarrierId) -> SliceRc<BarrierState> {
        let barriers = self.inner.barriers.borrow();
        by_id(&barriers, barrier.0).unwrap_or_else(|| panic!("unknown DSM barrier {barrier:?}"))
    }

    /// The manager node of `lock`.
    pub fn lock_manager(&self, lock: LockId) -> NodeId {
        self.lock_state(lock).manager
    }

    /// The manager node of `barrier`.
    pub fn barrier_manager(&self, barrier: BarrierId) -> NodeId {
        self.barrier_state(barrier).manager
    }
}

/// The lock or barrier with id `id` (ids start at 1) in its table.
fn by_id<T>(table: &[SliceRc<T>], id: u64) -> Option<SliceRc<T>> {
    let at = usize::try_from(id).ok()?.checked_sub(1)?;
    table.get(at).cloned()
}

impl std::fmt::Debug for DsmRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DsmRuntime({} nodes, {} protocols, {} pages)",
            self.num_nodes(),
            self.inner.protocols.len(),
            self.inner.directory.borrow().pages.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Invalidation;
    use crate::protocol::CustomProtocol;
    use proptest::prelude::*;

    /// A runtime on two nodes whose default protocol only has to exist:
    /// allocation runs none of its handlers.
    fn allocating_runtime(engine: &Engine) -> DsmRuntime {
        let rt = DsmRuntime::new(engine, Pm2Config::bip_myrinet(2));
        rt.set_default_protocol(rt.register_protocol(CustomProtocol::builder("idle").build()));
        rt
    }

    proptest! {
        /// `dsm_malloc` hands out page-aligned regions back to back from
        /// `SHARED_BASE` — so pairwise disjoint, and the same address on
        /// every node — and makes every page a region covers, and no page
        /// past the last one, a DSM page.
        #[test]
        fn prop_dsm_malloc_places_regions_back_to_back(
            sizes in proptest::collection::vec(1u64..(3 * PAGE_SIZE as u64 + 64), 1..12)
        ) {
            let engine = Engine::new();
            let rt = allocating_runtime(&engine);
            let mut end = SHARED_BASE;
            for bytes in sizes {
                let addr = rt.dsm_malloc(bytes, DsmAttr::default());
                prop_assert_eq!(addr.as_u64(), end);
                prop_assert_eq!(addr.offset(), 0);
                for page in pages_covering(addr, bytes) {
                    prop_assert!(rt.is_dsm_page(page));
                }
                end += bytes.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
                prop_assert!(!rt.is_dsm_page(DsmAddr(end).page()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot allocate zero bytes")]
    fn zero_byte_allocation_panics() {
        let engine = Engine::new();
        allocating_runtime(&engine).dsm_malloc(0, DsmAttr::default());
    }

    /// Registration hands out dense ids, and each id keeps naming its
    /// protocol however many are registered after it.
    #[test]
    fn registered_protocols_keep_their_ids() {
        let engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(1));
        let names: Vec<String> = (0..40).map(|i| format!("p{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            let id = rt.register_protocol(CustomProtocol::builder(name.clone()).build());
            assert_eq!(id, ProtocolId(i));
        }
        for (i, name) in names.iter().enumerate() {
            assert_eq!(rt.protocol(ProtocolId(i)).name(), name);
            assert_eq!(rt.protocol_by_name(name), Some(ProtocolId(i)));
        }
        assert!(rt.inner.protocols.get(names.len()).is_none());
        assert!(rt.inner.protocols.get(usize::MAX).is_none());
    }

    /// However a run ends, nothing of it outlives the engine: once the engine
    /// and every runtime handle are dropped, the runtime is freed — page
    /// tables, frames, the coherence outbox, the services and hooks that
    /// hold it weakly, and the threads still blocked in it included.
    #[test]
    fn nothing_outlives_its_run() {
        let ends = |build: &dyn Fn(&DsmRuntime), run: bool| {
            let mut engine = Engine::new();
            let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
            let weak = rt.downgrade();
            let quiet = CustomProtocol::builder("quiet")
                .invalidate_server(|_, _| {})
                .build();
            let quiet = rt.register_protocol(quiet);
            rt.set_default_protocol(quiet);
            build(&rt);
            drop(rt);
            let result = run.then(|| engine.run());
            drop(engine);
            assert!(weak.upgrade().is_none(), "the runtime outlived its run");
            result
        };
        // `threads` threads over both nodes, each sending a coherence message
        // to the other node, then taking a lock and meeting at a barrier of
        // `parties`.
        let meet = |rt: &DsmRuntime, parties: usize, threads: usize| {
            let barrier = rt.create_barrier(parties, None);
            let lock = rt.create_lock(None);
            let unit = Unit::whole(rt.dsm_malloc(4096, DsmAttr::default()).page());
            for t in 0..threads {
                let (me, other) = (NodeId(t % 2), NodeId((t + 1) % 2));
                rt.spawn_dsm_thread(me, format!("t{t}"), move |ctx| {
                    let rt = ctx.runtime().clone();
                    let inv = Invalidation {
                        unit,
                        from: me,
                        new_owner: None,
                        needs_ack: false,
                        version: 0,
                    };
                    rt.send_invalidate(ctx.pm2.sim, me, other, inv);
                    ctx.dsm_lock(lock);
                    ctx.dsm_unlock(lock);
                    ctx.dsm_barrier(barrier);
                });
            }
        };

        let completed = ends(&|rt| meet(rt, 2, 2), true);
        assert!(matches!(completed, Some(Ok(_))), "{completed:?}");
        let deadlocked = ends(&|rt| meet(rt, 3, 2), true);
        assert!(
            matches!(deadlocked, Some(Err(dsmpm2_sim::SimError::Deadlock { .. }))),
            "{deadlocked:?}"
        );
        let panicked = ends(
            &|rt| {
                meet(rt, 3, 2);
                rt.spawn_dsm_thread(NodeId(1), "bad", |ctx| {
                    ctx.pm2.sim.sleep(dsmpm2_sim::SimDuration::from_millis(1));
                    panic!("intentional test panic");
                });
            },
            true,
        );
        assert!(
            matches!(
                panicked,
                Some(Err(dsmpm2_sim::SimError::ThreadPanic { .. }))
            ),
            "{panicked:?}"
        );
        let never_ran = ends(&|rt| meet(rt, 2, 2), false);
        assert!(never_ran.is_none());
    }
}
