//! Access detection: the software MMU.
//!
//! The original DSM-PM2 detects accesses to shared data with page faults
//! (SIGSEGV + mprotect). In this reproduction every DSM access goes through
//! the typed accessors below, which consult the calling thread's node page
//! table: if the local rights are insufficient the access *faults*, the
//! calibrated fault-detection cost (11 µs) is charged, the protocol's fault
//! handler runs, and the access is then repeated — exactly the structure of a
//! signal-based fault path, without the `unsafe` signal handling. The paper
//! itself supports bypassing page faults with explicit locality checks (the
//! `java_ic` protocol); [`DsmThreadCtx::checked_read`] and
//! [`DsmThreadCtx::checked_write_recorded`] model that path.
//!
//! A hit is one inlined pass: the thread's node is read once, the unit is
//! resolved once, the frame is borrowed once. The leaves it reaches in other
//! crates and codegen units (the node, the clock charge, the counters, the
//! scalar codecs) carry `#[inline]`, because a build without LTO — the
//! benchmark package's — otherwise makes each a real call on every access.
//! The hit path's own steps here and [`crate::PageTable::resolve`] carry
//! `#[inline(always)]`: LLVM, weighing their hash probes, kept them out of
//! line under the hint, which cost `stencil_local` a third of its time.
//! Only a miss leaves the caller's code.

use dsmpm2_madeleine::NodeId;

use crate::ctx::DsmThreadCtx;
use crate::page::{line_range, Access, DsmAddr, Unit, PAGE_SIZE};
use crate::page_table::UnitView;
use crate::protocol::FaultInfo;

/// Scalar types that can be stored in DSM memory.
pub trait DsmScalar: Copy + Sized + Send + 'static {
    /// Size of the value in bytes.
    const SIZE: usize;
    /// Serialize into little-endian bytes.
    fn store_le(self, out: &mut [u8]);
    /// Deserialize from little-endian bytes.
    fn load_le(buf: &[u8]) -> Self;
}

macro_rules! impl_dsm_scalar {
    ($($t:ty),* $(,)?) => {
        $(
            impl DsmScalar for $t {
                const SIZE: usize = std::mem::size_of::<$t>();
                #[inline]
                fn store_le(self, out: &mut [u8]) {
                    out.copy_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn load_le(buf: &[u8]) -> Self {
                    <$t>::from_le_bytes(buf.try_into().expect("slice of exact size"))
                }
            }
        )*
    };
}

impl_dsm_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

#[inline]
fn check_within_page(addr: DsmAddr, size: usize) {
    assert!(
        addr.offset() + size <= PAGE_SIZE,
        "DSM access at {addr} of {size} bytes crosses a page boundary; \
         lay shared objects out so that scalars do not straddle pages"
    );
}

impl DsmThreadCtx<'_, '_> {
    /// Make sure the calling thread's node holds `needed` rights on the page
    /// containing `addr`, taking page faults (and running the protocol's
    /// fault handlers) as long as it does not. This is the access-detection
    /// loop: "on exiting the fault handler the thread repeats the access".
    pub fn ensure_access(&mut self, addr: DsmAddr, needed: Access) {
        self.detect(addr, 1, needed, false);
    }

    /// The access-detection loop proper, for an access of `size` bytes. A
    /// hit costs one borrow of the page table, which takes no lock: the unit
    /// is resolved once into a [`UnitView`], which the caller gets back with
    /// the node it was resolved on — the node is an atomic load, read once
    /// per access; `mark_write` makes that same borrow mark a writable unit
    /// modified (the hit of a write about to happen). A miss calls `fault`.
    #[inline(always)]
    fn detect(
        &mut self,
        addr: DsmAddr,
        size: usize,
        needed: Access,
        mark_write: bool,
    ) -> (NodeId, UnitView) {
        loop {
            let node = self.node();
            let unit = self.resolve(node, addr, size, mark_write);
            if unit.access.permits(needed) {
                return (node, unit);
            }
            self.fault(addr, needed, unit);
            // Loop: repeat the access (possibly from a different node if the
            // handler migrated the thread).
        }
    }

    /// A page fault on `unit`, which lacks `needed` rights: charge the
    /// detection cost and run the protocol's fault handler.
    fn fault(&mut self, addr: DsmAddr, needed: Access, unit: UnitView) {
        let rt = &self.runtime;
        let page_fault = rt.costs().page_fault;
        rt.inner().page_fault_row.record(page_fault);
        self.pm2.sim.charge(page_fault);
        match needed {
            Access::Write => rt.stats().incr_write_fault(),
            _ => rt.stats().incr_read_fault(),
        }
        // The handler takes this context mutably, runtime included: the
        // protocol is borrowed from a handle of its own.
        let rt = rt.clone();
        let protocol = rt.protocol(unit.protocol);
        let fault = FaultInfo {
            addr,
            unit: Unit::new(addr.page(), unit.line),
            access: needed,
        };
        if needed == Access::Write {
            protocol.write_fault_handler(self, fault);
        } else {
            protocol.read_fault_handler(self, fault);
        }
    }

    /// Resolve the coherence unit an access of `size` bytes at `addr`
    /// touches on `node`, whatever the rights. Panics on an address outside
    /// every allocation, and on an access that straddles a coherence-line
    /// boundary of a sub-page-granularity region (rights are per line, so a
    /// straddling access would only be covered on its first line).
    #[inline(always)]
    fn resolve(&self, node: NodeId, addr: DsmAddr, size: usize, mark_write: bool) -> UnitView {
        let unit = self
            .runtime
            .page_table(node)
            .resolve(addr.page(), addr.offset(), mark_write)
            .unwrap_or_else(|| {
                panic!("access at {addr} is outside every DSM allocation (node {node})")
            });
        if unit.line_size < PAGE_SIZE {
            let (line_start, line_len) = line_range(unit.line, unit.line_size);
            assert!(
                addr.offset() + size <= line_start + line_len,
                "DSM access at {addr} of {size} bytes crosses a coherence-line boundary \
                 (granularity {}); lay shared objects out so that scalars do not straddle lines",
                unit.line_size
            );
        }
        unit
    }

    /// One explicit inline locality check (the `java_ic` / compiler-target
    /// access path): charge and count the check, then resolve the unit —
    /// a write marking it modified if it is writable — and return the node
    /// if it holds `needed` rights. No fault is taken either way.
    #[inline(always)]
    fn locality_check(&mut self, addr: DsmAddr, size: usize, needed: Access) -> Option<NodeId> {
        check_within_page(addr, size);
        let rt = &self.runtime;
        rt.stats().incr_inline_check();
        self.pm2.sim.charge(rt.costs().inline_check);
        let node = self.node();
        let unit = self.resolve(node, addr, size, needed == Access::Write);
        unit.access.permits(needed).then_some(node)
    }

    /// Read a scalar from shared memory (faulting as needed).
    pub fn read<T: DsmScalar>(&mut self, addr: DsmAddr) -> T {
        check_within_page(addr, T::SIZE);
        let (node, _) = self.detect(addr, T::SIZE, Access::Read, false);
        self.read_local(node, addr)
    }

    /// Read a scalar behind an explicit inline locality check instead of
    /// fault detection: the check's charge and count, one resolve, and — if
    /// the node may read the unit — the hit. `None` if it may not; nothing
    /// was read, and the caller brings the page in and retries (Hyperion's
    /// `get` under `java_ic`).
    #[inline]
    pub fn checked_read<T: DsmScalar>(&mut self, addr: DsmAddr) -> Option<T> {
        let node = self.locality_check(addr, T::SIZE, Access::Read)?;
        Some(self.read_local(node, addr))
    }

    /// Write a scalar to shared memory (faulting as needed). When the page's
    /// protocol records writes on the fly ([`crate::DsmProtocol::records_writes`],
    /// the Java protocols), the modified range is recorded exactly as
    /// [`DsmThreadCtx::write_recorded`] would — plain writes stay portable
    /// across every registered protocol.
    pub fn write<T: DsmScalar>(&mut self, addr: DsmAddr, value: T) {
        check_within_page(addr, T::SIZE);
        let (node, unit) = self.detect(addr, T::SIZE, Access::Write, true);
        self.hit(node, addr, T::SIZE, true, unit.records_writes, |b| {
            value.store_le(b)
        });
    }

    /// Write a scalar and record the modified range with field granularity
    /// (the on-the-fly diff recording used by the Java protocols' `put`).
    pub fn write_recorded<T: DsmScalar>(&mut self, addr: DsmAddr, value: T) {
        check_within_page(addr, T::SIZE);
        let (node, _) = self.detect(addr, T::SIZE, Access::Write, true);
        self.hit(node, addr, T::SIZE, true, true, |b| value.store_le(b));
    }

    /// [`DsmThreadCtx::write_recorded`] behind an explicit inline locality
    /// check instead of fault detection: the check's charge and count, one
    /// resolve that also marks a writable unit modified, and — if the node
    /// may write the unit — the recorded store. `false` if it may not:
    /// nothing was stored, recorded or marked, and the caller brings the
    /// page in and retries (Hyperion's `put` under `java_ic`).
    #[inline]
    pub fn checked_write_recorded<T: DsmScalar>(&mut self, addr: DsmAddr, value: T) -> bool {
        let Some(node) = self.locality_check(addr, T::SIZE, Access::Write) else {
            return false;
        };
        self.hit(node, addr, T::SIZE, true, true, |b| value.store_le(b));
        true
    }

    /// Read `buf.len()` bytes from shared memory (must not cross a page).
    pub fn read_bytes(&mut self, addr: DsmAddr, buf: &mut [u8]) {
        check_within_page(addr, buf.len());
        let (node, _) = self.detect(addr, buf.len(), Access::Read, false);
        self.hit(node, addr, buf.len(), false, false, |b| {
            buf.copy_from_slice(b)
        });
    }

    /// Write `bytes` to shared memory (must not cross a page). Recorded with
    /// field granularity when the page's protocol records writes on the fly
    /// (see [`DsmThreadCtx::write`]).
    pub fn write_bytes(&mut self, addr: DsmAddr, bytes: &[u8]) {
        check_within_page(addr, bytes.len());
        let (node, unit) = self.detect(addr, bytes.len(), Access::Write, true);
        self.hit(node, addr, bytes.len(), true, unit.records_writes, |b| {
            b.copy_from_slice(bytes)
        });
    }

    /// Read a scalar from `node`, whose rights on it are established.
    fn read_local<T: DsmScalar>(&mut self, node: NodeId, addr: DsmAddr) -> T {
        self.hit(node, addr, T::SIZE, false, false, |b| T::load_le(b))
    }

    /// The hit itself, once `node`'s rights are established: count and
    /// charge one local access, then let `copy` move the bytes between the
    /// caller's value and the frame inside one borrow of the frame store.
    /// `record` (writes only) logs the range as modified, for protocols that
    /// diff from recorded writes.
    #[inline(always)]
    fn hit<R>(
        &mut self,
        node: NodeId,
        addr: DsmAddr,
        len: usize,
        is_write: bool,
        record: bool,
        copy: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        let rt = &self.runtime;
        rt.stats().incr_local_access();
        self.pm2.sim.charge(rt.costs().local_access);
        let out = rt
            .frames(node)
            .with_bytes(addr.page(), addr.offset(), len, record, copy);
        if let Some(hooks) = rt.hooks() {
            let access = crate::verify::MemAccess {
                time: self.pm2.sim.now(),
                node,
                thread: self.pm2.sim.id(),
                page: addr.page(),
                addr,
                len,
                is_write,
            };
            hooks.mem_access(rt, access);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_through_le_bytes() {
        let mut buf = [0u8; 8];
        1234567890123u64.store_le(&mut buf);
        assert_eq!(u64::load_le(&buf), 1234567890123);
        let mut buf = [0u8; 4];
        (-7i32).store_le(&mut buf);
        assert_eq!(i32::load_le(&buf), -7);
        let mut buf = [0u8; 8];
        3.25f64.store_le(&mut buf);
        assert_eq!(f64::load_le(&buf), 3.25);
        assert_eq!(<u8 as DsmScalar>::SIZE, 1);
        assert_eq!(<f64 as DsmScalar>::SIZE, 8);
    }

    /// The checked write skips fault detection, not the rights: on a copy
    /// the node may only read, it refuses. A store there would reach the
    /// frame while `resolve` (rightly) left the unit unmarked, so no release
    /// would ever ship it — the bug of the unchecked `write_local` the
    /// checked write replaced, which stored the 2 below without a word.
    #[test]
    fn checked_write_on_a_read_only_copy_refuses_and_leaves_no_trace() {
        use crate::{CustomProtocol, DsmAttr, DsmRuntime, HomePolicy};
        use dsmpm2_pm2::{Engine, Pm2Config};

        let mut engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
        let inert = rt.register_protocol(CustomProtocol::builder("inert").build());
        let home = NodeId(0);
        let attr = DsmAttr::with_protocol(inert).home(HomePolicy::Fixed(home));
        let base = rt.dsm_malloc(PAGE_SIZE as u64, attr);
        let unit = Unit::whole(base.page());
        rt.spawn_dsm_thread(home, "writer", move |ctx| {
            assert!(ctx.checked_write_recorded::<u64>(base, 1));
            ctx.runtime().page_table(home).update(unit, |e| {
                e.access = Access::Read;
                e.modified_since_release = false;
            });
            assert!(!ctx.checked_write_recorded::<u64>(base, 2));
        });
        engine.run().expect("a refused write is not an error");
        let stored = rt.frames(home).snapshot(base.page(), (0, 8));
        assert_eq!(
            stored,
            1u64.to_le_bytes(),
            "the refused store left no trace"
        );
        assert!(!rt.page_table(home).get(unit).modified_since_release);
        assert_eq!(rt.frames(home).recorded_ranges(base.page()), 1);
        let stats = rt.stats().snapshot();
        assert_eq!((stats.inline_checks, stats.local_accesses), (2, 1));
    }

    #[test]
    #[should_panic(expected = "crosses a page boundary")]
    fn cross_page_access_is_rejected() {
        check_within_page(DsmAddr(PAGE_SIZE as u64 - 2), 4);
    }

    #[test]
    fn within_page_access_is_accepted() {
        check_within_page(DsmAddr(PAGE_SIZE as u64 - 4), 4);
        check_within_page(DsmAddr(0), PAGE_SIZE);
    }
}
