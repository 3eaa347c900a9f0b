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
//! [`DsmThreadCtx::checked_write`] model that path.
//!
//! A hit is one inlined pass under one borrow of the node's page table: it
//! resolves the unit, checks the rights, marks, records, counts and moves
//! the bytes, the frame and the hit counters sitting beside the entries
//! (`PageMap`: one subtraction and one bounds check). Its leaves in other
//! crates (the node, the clock charge, the scalar codecs) carry `#[inline]`,
//! as a build without LTO (the benchmark package's) would call each; the
//! pass itself carries `#[inline(always)]`, as LLVM kept its steps out of
//! line under the hint (a third of `stencil_local`'s time). Only a miss
//! leaves the caller's code; [`DsmThreadCtx::ensure_access`] is the same
//! pass, stopped at the rights.

use dsmpm2_madeleine::NodeId;

use crate::costs;
use crate::ctx::DsmThreadCtx;
use crate::page::{line_range, Access, DsmAddr, Unit, PAGE_SIZE};
use crate::page_table::NodePages;
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

/// What a pass of [`DsmThreadCtx::hit`] does once the rights permit it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// A typed access: mark a write, record it if the protocol does, count.
    Access,
    /// An inline locality check (`java_ic`), then an access.
    Checked,
    /// The rights only ([`DsmThreadCtx::ensure_access`]).
    Rights,
}

impl DsmThreadCtx<'_, '_> {
    /// Make sure the calling thread's node holds `needed` rights on the unit
    /// of `addr`, taking page faults (running the protocol's fault handlers)
    /// until it does: the access-detection loop without the access.
    pub fn ensure_access(&mut self, addr: DsmAddr, needed: Access) {
        self.access(addr, 0, needed, Pass::Rights, |_| ());
    }

    /// The access-detection loop around [`DsmThreadCtx::hit`]: on a miss,
    /// take the fault and repeat the access (possibly from another node, if
    /// the handler migrated the thread).
    #[inline(always)]
    fn access<R>(
        &mut self,
        addr: DsmAddr,
        len: usize,
        needed: Access,
        pass: Pass,
        mut copy: impl FnMut(&mut [u8]) -> R,
    ) -> R {
        loop {
            match self.hit(addr, len, needed, pass, &mut copy) {
                Ok(out) => return out,
                Err(unit) => self.fault(addr, needed, unit),
            }
        }
    }

    /// A page fault on `unit`, which lacks `needed` rights: charge the
    /// detection cost and run the fault handler of the page's protocol, as
    /// the directory names it.
    #[cold]
    fn fault(&mut self, addr: DsmAddr, needed: Access, unit: Unit) {
        let rt = &self.runtime;
        self.pm2.sim.charge(costs::PAGE_FAULT);
        match needed {
            Access::Write => rt.stats().incr_write_fault(),
            _ => rt.stats().incr_read_fault(),
        }
        // The handler takes this context mutably, runtime included: the
        // protocol is borrowed from a handle of its own.
        let rt = rt.clone();
        let protocol = rt.protocol_for_page(addr.page());
        let fault = FaultInfo {
            addr,
            unit,
            access: needed,
        };
        if needed == Access::Write {
            protocol.write_fault_handler(self, fault);
        } else {
            protocol.read_fault_handler(self, fault);
        }
    }

    /// One access of the `len` bytes at `addr` on the thread's node, in one
    /// borrow of its page table: resolve the unit and, if the node holds
    /// `needed` rights, do what `pass` says, `copy` moving the bytes. A miss
    /// changes nothing and returns the unit. Panics on an address
    /// outside every allocation, and on one straddling a line of a sub-page
    /// region (rights are per line: it would be covered on its first only).
    #[inline(always)]
    fn hit<R>(
        &mut self,
        addr: DsmAddr,
        len: usize,
        needed: Access,
        pass: Pass,
        copy: &mut impl FnMut(&mut [u8]) -> R,
    ) -> Result<R, Unit> {
        check_within_page(addr, len);
        let (rt, node) = (&self.runtime, self.node());
        let (page, offset) = (addr.page(), addr.offset());
        let check = pass == Pass::Checked;
        if check {
            self.pm2.sim.charge(costs::INLINE_CHECK);
        }
        let out = {
            let mut slots = rt.page_table(node).slots.borrow();
            let NodePages {
                pages,
                local_accesses,
                inline_checks,
            } = &mut *slots;
            *inline_checks += u64::from(check);
            let Some(slot) = pages.get_mut(page) else {
                outside(addr, node)
            };
            let (entry, frame) = slot.unit_at(offset);
            if entry.line_size < PAGE_SIZE {
                let (line_start, line_len) = line_range(entry.unit.line, entry.line_size);
                assert!(
                    offset + len <= line_start + line_len,
                    "DSM access at {addr} of {len} bytes crosses a coherence-line boundary \
                     (granularity {}); lay shared objects out so that scalars do not straddle lines",
                    entry.line_size
                );
            }
            if !entry.access.permits(needed) {
                return Err(entry.unit);
            }
            if pass == Pass::Rights {
                return Ok(copy(&mut []));
            }
            let frame = frame
                .as_mut()
                .expect("a node with rights on a page holds its frame");
            if needed == Access::Write {
                entry.modified_since_release = true;
                if entry.records_writes {
                    frame.recorded.push((offset, len));
                }
            }
            *local_accesses += 1;
            copy(&mut frame.data[offset..offset + len])
        };
        self.pm2.sim.charge(costs::LOCAL_ACCESS);
        if let Some(hooks) = rt.hooks() {
            let access = crate::verify::MemAccess {
                time: self.pm2.sim.now(),
                node,
                thread: self.pm2.sim.id(),
                page,
                addr,
                len,
                is_write: needed == Access::Write,
            };
            hooks.mem_access(rt, access);
        }
        Ok(out)
    }

    /// Read a scalar from shared memory (faulting as needed).
    pub fn read<T: DsmScalar>(&mut self, addr: DsmAddr) -> T {
        self.access(addr, T::SIZE, Access::Read, Pass::Access, |b| T::load_le(b))
    }

    /// Read a scalar behind an explicit inline locality check instead of
    /// fault detection: the check's charge and count, and — if the node may
    /// read the unit — the hit, in one borrow. `None` if it may not; nothing
    /// was read, and the caller brings the page in and retries (Hyperion's
    /// `get` under `java_ic`).
    #[inline]
    pub fn checked_read<T: DsmScalar>(&mut self, addr: DsmAddr) -> Option<T> {
        self.hit(addr, T::SIZE, Access::Read, Pass::Checked, &mut |b| {
            T::load_le(b)
        })
        .ok()
    }

    /// Write a scalar to shared memory (faulting as needed). When the page's
    /// protocol records writes on the fly ([`crate::DsmProtocol::records_writes`],
    /// the Java protocols), the modified range is recorded with field
    /// granularity (the on-the-fly diff recording of Hyperion's `put`);
    /// under any other protocol it is not, so plain writes stay portable
    /// across every registered protocol.
    pub fn write<T: DsmScalar>(&mut self, addr: DsmAddr, value: T) {
        self.access(addr, T::SIZE, Access::Write, Pass::Access, |b| {
            value.store_le(b)
        });
    }

    /// [`DsmThreadCtx::write`] behind an explicit inline locality check
    /// instead of fault detection: the check's charge and count, and — if
    /// the node may write the unit — the marked store, recorded when the
    /// page's protocol records writes, in one borrow. `false` if it may not:
    /// nothing was stored, recorded or marked, and the caller brings the
    /// page in and retries (Hyperion's `put` under `java_ic`).
    #[inline]
    pub fn checked_write<T: DsmScalar>(&mut self, addr: DsmAddr, value: T) -> bool {
        let mut store = |b: &mut [u8]| value.store_le(b);
        self.hit(addr, T::SIZE, Access::Write, Pass::Checked, &mut store)
            .is_ok()
    }

    /// Read `buf.len()` bytes from shared memory (must not cross a page).
    pub fn read_bytes(&mut self, addr: DsmAddr, buf: &mut [u8]) {
        self.access(addr, buf.len(), Access::Read, Pass::Access, |b| {
            buf.copy_from_slice(b)
        });
    }

    /// Write `bytes` to shared memory (must not cross a page). Recorded with
    /// field granularity when the page's protocol records writes on the fly
    /// (see [`DsmThreadCtx::write`]).
    pub fn write_bytes(&mut self, addr: DsmAddr, bytes: &[u8]) {
        self.access(addr, bytes.len(), Access::Write, Pass::Access, |b| {
            b.copy_from_slice(bytes)
        });
    }
}

#[cold]
#[inline(never)]
fn outside(addr: DsmAddr, node: NodeId) -> ! {
    panic!("access at {addr} is outside every DSM allocation (node {node})")
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
    /// frame while the refused hit (rightly) left the unit unmarked, so no release
    /// would ever ship it — the bug of the unchecked `write_local` the
    /// checked write replaced, which stored the 2 below without a word.
    #[test]
    fn checked_write_on_a_read_only_copy_refuses_and_leaves_no_trace() {
        use crate::protocol::tests::Named;
        use crate::{DsmAttr, DsmRuntime, HomePolicy};
        use dsmpm2_pm2::{Engine, Pm2Config};

        let mut engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
        let inert = rt.register_protocol(std::sync::Arc::new(Named("inert".into())));
        let home = NodeId(0);
        let attr = DsmAttr::with_protocol(inert).home(HomePolicy::Fixed(home));
        let base = rt.dsm_malloc(PAGE_SIZE as u64, attr);
        let unit = Unit::whole(base.page());
        rt.spawn_dsm_thread(home, "writer", move |ctx| {
            assert!(ctx.checked_write::<u64>(base, 1));
            ctx.runtime().page_table(home).update(unit, |e| {
                e.access = Access::Read;
                e.modified_since_release = false;
            });
            assert!(!ctx.checked_write::<u64>(base, 2));
        });
        engine.run().expect("a refused write is not an error");
        let stored = rt.frames(home).snapshot(base.page(), (0, 8));
        assert_eq!(
            stored,
            1u64.to_le_bytes(),
            "the refused store left no trace"
        );
        assert!(!rt.page_table(home).get(unit).modified_since_release);
        let recorded = rt.frames(home).recorded_ranges(base.page());
        assert_eq!(recorded, 0, "a protocol that records no write");
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
