//! Iso-address allocation.
//!
//! PM2's `isomalloc` guarantees that the virtual address range allocated by a
//! thread on one node is left free on every other node, so a migrated thread
//! finds its stack and private data at the same addresses and all pointers
//! stay valid. In the simulation there is a single cluster-wide virtual
//! address space managed by this allocator, so the iso-address property holds
//! by construction; what the allocator adds is (a) page-aligned, disjoint
//! ranges, (b) the distinction between *shared* (DSM) and *node-private*
//! regions, and (c) bookkeeping used by tests and the monitoring report.

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::SliceCell;

/// Base of the shared (DSM) iso-address region.
pub const ISO_SHARED_BASE: u64 = 0x0000_1000_0000_0000;
/// Base of the node-private iso-address regions.
pub const ISO_PRIVATE_BASE: u64 = 0x0000_2000_0000_0000;
/// Size of each node's private iso-address slot.
pub const ISO_PRIVATE_SLOT: u64 = 0x0000_0001_0000_0000;

/// A range of iso-addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IsoRange {
    /// First address of the range.
    pub start: u64,
    /// Length in bytes (always a multiple of the requested alignment).
    pub len: u64,
}

impl IsoRange {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// True if `addr` falls inside the range.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// True if the two ranges share at least one address.
    pub fn overlaps(&self, other: &IsoRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// Kind of allocation, used in the allocation log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsoKind {
    /// DSM-shared data (visible from every node).
    Shared,
    /// Node-private data attached to a thread (migrates with it).
    Private(NodeId),
}

#[derive(Debug)]
struct Inner {
    next_shared: u64,
    next_private: Vec<u64>,
    log: Vec<(IsoRange, IsoKind)>,
}

/// The cluster-wide iso-address allocator.
#[derive(Debug)]
pub struct IsoAllocator {
    inner: SliceCell<Inner>,
}

impl IsoAllocator {
    /// Create an allocator for a cluster of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        IsoAllocator {
            inner: SliceCell::new(Inner {
                next_shared: ISO_SHARED_BASE,
                next_private: (0..num_nodes)
                    .map(|i| ISO_PRIVATE_BASE + i as u64 * ISO_PRIVATE_SLOT)
                    .collect(),
                log: Vec::new(),
            }),
        }
    }

    fn align_up(value: u64, align: u64) -> u64 {
        debug_assert!(align.is_power_of_two());
        (value + align - 1) & !(align - 1)
    }

    /// Allocate `bytes` of DSM-shared iso-address space, aligned to `align`
    /// (which must be a power of two).
    pub fn alloc_shared(&self, bytes: u64, align: u64) -> IsoRange {
        assert!(bytes > 0, "cannot allocate zero bytes");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut inner = self.inner.borrow();
        let start = Self::align_up(inner.next_shared, align);
        let len = Self::align_up(bytes, align);
        inner.next_shared = start + len;
        let range = IsoRange { start, len };
        inner.log.push((range, IsoKind::Shared));
        range
    }

    /// Allocate `bytes` of node-private iso-address space on `node`.
    pub fn alloc_private(&self, node: NodeId, bytes: u64, align: u64) -> IsoRange {
        assert!(bytes > 0, "cannot allocate zero bytes");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut inner = self.inner.borrow();
        let slot_base = ISO_PRIVATE_BASE + node.index() as u64 * ISO_PRIVATE_SLOT;
        let slot_end = slot_base + ISO_PRIVATE_SLOT;
        let cursor = inner.next_private[node.index()];
        let start = Self::align_up(cursor, align);
        let len = Self::align_up(bytes, align);
        assert!(
            start + len <= slot_end,
            "node {node} exhausted its private iso-address slot"
        );
        inner.next_private[node.index()] = start + len;
        let range = IsoRange { start, len };
        inner.log.push((range, IsoKind::Private(node)));
        range
    }

    /// Number of allocations performed so far.
    pub fn allocation_count(&self) -> usize {
        self.inner.borrow().log.len()
    }

    /// Total bytes handed out so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.inner.borrow().log.iter().map(|(r, _)| r.len).sum()
    }

    /// The full allocation log (used by tests and the monitoring report).
    pub fn allocations(&self) -> Vec<(IsoRange, IsoKind)> {
        self.inner.borrow().log.clone()
    }

    /// Verify the iso-address invariant: no two live allocations overlap.
    pub fn check_disjoint(&self) -> bool {
        let log = self.inner.borrow();
        for (i, (a, _)) in log.log.iter().enumerate() {
            for (b, _) in log.log.iter().skip(i + 1) {
                if a.overlaps(b) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shared_allocations_are_disjoint_and_aligned() {
        let a = IsoAllocator::new(2);
        let r1 = a.alloc_shared(4096, 4096);
        let r2 = a.alloc_shared(100, 4096);
        let r3 = a.alloc_shared(8192, 4096);
        assert_eq!(r1.start % 4096, 0);
        assert_eq!(r2.start % 4096, 0);
        assert_eq!(r2.len, 4096); // rounded up to alignment
        assert!(!r1.overlaps(&r2));
        assert!(!r2.overlaps(&r3));
        assert!(a.check_disjoint());
    }

    #[test]
    fn private_allocations_live_in_their_node_slot() {
        let a = IsoAllocator::new(3);
        let r0 = a.alloc_private(NodeId(0), 1024, 8);
        let r2 = a.alloc_private(NodeId(2), 1024, 8);
        assert!(r0.start >= ISO_PRIVATE_BASE && r0.end() <= ISO_PRIVATE_BASE + ISO_PRIVATE_SLOT);
        assert!(r2.start >= ISO_PRIVATE_BASE + 2 * ISO_PRIVATE_SLOT);
        assert!(!r0.overlaps(&r2));
    }

    #[test]
    fn shared_and_private_regions_never_collide() {
        let a = IsoAllocator::new(2);
        let s = a.alloc_shared(1 << 20, 4096);
        let p = a.alloc_private(NodeId(1), 1 << 20, 4096);
        assert!(!s.overlaps(&p));
        assert!(a.check_disjoint());
    }

    #[test]
    fn bookkeeping_counts_allocations() {
        let a = IsoAllocator::new(1);
        a.alloc_shared(10, 8);
        a.alloc_private(NodeId(0), 10, 8);
        assert_eq!(a.allocation_count(), 2);
        assert_eq!(a.allocated_bytes(), 32); // two 16-byte aligned blocks
        assert_eq!(a.allocations().len(), 2);
    }

    #[test]
    #[should_panic(expected = "zero bytes")]
    fn zero_sized_allocation_is_rejected() {
        IsoAllocator::new(1).alloc_shared(0, 8);
    }

    #[test]
    fn range_contains_and_end() {
        let r = IsoRange {
            start: 100,
            len: 50,
        };
        assert!(r.contains(100));
        assert!(r.contains(149));
        assert!(!r.contains(150));
        assert_eq!(r.end(), 150);
    }

    proptest! {
        /// Property: any interleaving of shared and private allocations keeps
        /// all ranges pairwise disjoint (the iso-address invariant).
        #[test]
        fn prop_all_allocations_disjoint(ops in proptest::collection::vec((0usize..3, 1u64..10_000, 0u32..4), 1..60)) {
            let alloc = IsoAllocator::new(3);
            for (kind, bytes, align_pow) in ops {
                let align = 1u64 << (3 + align_pow);
                if kind == 0 {
                    alloc.alloc_shared(bytes, align);
                } else {
                    alloc.alloc_private(NodeId(kind - 1), bytes, align);
                }
            }
            prop_assert!(alloc.check_disjoint());
        }

        /// Property: allocations are aligned as requested.
        #[test]
        fn prop_alignment_respected(bytes in 1u64..100_000, align_pow in 0u32..12) {
            let align = 1u64 << align_pow;
            let alloc = IsoAllocator::new(1);
            let r = alloc.alloc_shared(bytes, align);
            prop_assert_eq!(r.start % align, 0);
            prop_assert!(r.len >= bytes);
        }
    }
}
