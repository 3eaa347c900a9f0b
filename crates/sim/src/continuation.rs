//! Stackful continuations: run a simulated thread's slice on the
//! scheduler's own OS thread.
//!
//! An OS-thread baton pays two OS context switches per simulated step (grant
//! = unpark the thread's OS thread + park ours; park = the reverse). This
//! module removes the OS scheduler from that path entirely: each worker (a
//! `ThreadSlot`, which runs one simulated thread after another) owns a
//! private call stack, and the scheduler *switches onto it* with a
//! ~dozen-instruction register swap, runs the slice to its next yield point,
//! and switches back. Blocking points (`WaitSet`, channels, DSM faults)
//! become resumption points on the coroutine's saved stack — the
//! user-visible programming model (ordinary imperative Rust against
//! [`crate::SimHandle`]) is unchanged. A coroutine's body is the worker's
//! loop, so it is bootstrapped once per worker, not once per thread, and its
//! stack lives as long as the engine's table of workers.
//!
//! ## The switch
//!
//! x86-64 SysV: a context is fully described by the callee-saved registers
//! (`rbx`, `rbp`, `r12`–`r15`) plus the stack pointer. [`raw_switch`] pushes
//! the six registers, stores `rsp` through its first argument, installs the
//! `rsp` passed as its second, pops six registers and returns — landing in
//! whatever `raw_switch` call (or bootstrap frame) last saved that stack.
//!
//! A fresh coroutine's stack is seeded with a hand-built frame: six register
//! slots (with `r12` = pointer to the [`Coro`]) below the address of a
//! naked trampoline that moves `r12` into the first-argument register and
//! calls [`coro_entry`]. `rbp` is seeded as zero so frame-pointer walkers
//! stop at the stack boundary.
//!
//! ## Safety rules (enforced by the caller, `ThreadSlot`)
//!
//! * Only the engine's one scheduler thread resumes a coroutine, and never
//!   while it is already running.
//! * A started coroutine must be driven to completion (normally, or by the
//!   shutdown unwind during teardown) before it is dropped, so the
//!   destructors of the frames parked on its stack run.
//! * Captured state may cross OS threads (a body is built by whoever spawns
//!   it and run by whoever calls `Engine::run`), which is why spawn closures
//!   are `Send`.
//!
//! Panics never cross the switch: the slice body runs under
//! `catch_unwind` *inside* the coroutine, and [`coro_entry`] adds a
//! belt-and-braces catch so no unwind can reach the bootstrap frame.

use std::panic::{self, AssertUnwindSafe};

/// Whether this target has a stack-switching implementation. When false the
/// engine backs every simulated thread with the OS-thread baton instead, so
/// the programming model and determinism are preserved everywhere.
/// `--cfg dsm_force_no_coro` forces the fallback even where the asm path
/// exists, so CI can exercise the non-x86-64 downgrade on x86-64 hosts.
pub(crate) const SUPPORTED: bool = cfg!(all(target_arch = "x86_64", not(dsm_force_no_coro)));

/// Private stack size of every continuation. Committed lazily by the OS
/// (the buffer is allocated but never written ahead of use), so the cost of
/// an oversized stack is address space, not memory.
const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// Magic word written at the low end of the stack; checked after every
/// slice. Heap stacks have no guard page, so this is the (best-effort)
/// overflow tripwire.
const CANARY: u64 = 0xDEAD_57AC_C0DE_F00D;

#[cfg(target_arch = "x86_64")]
mod arch {
    /// Switch stacks: save the current continuation at `*save_sp`, resume
    /// the one saved at `new_sp`. Returns when somebody switches back to
    /// `*save_sp`.
    ///
    /// # Safety
    /// `new_sp` must be a stack pointer previously produced by this function
    /// (or by [`bootstrap`]), whose continuation is suspended and owned by
    /// the caller.
    #[unsafe(naked)]
    pub(super) unsafe extern "sysv64" fn raw_switch(save_sp: *mut usize, new_sp: usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First frame of a fresh coroutine: `raw_switch`'s `ret` lands here
    /// with `r12` = the `Coro` pointer seeded by [`bootstrap`]. Forward it
    /// as the first argument and enter Rust. `coro_entry` never returns (it
    /// switches away for good); trap if it somehow does.
    #[unsafe(naked)]
    unsafe extern "sysv64" fn trampoline() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            entry = sym super::coro_entry,
        )
    }

    /// Seed a fresh stack so that switching to the returned `rsp` enters
    /// [`trampoline`] with `r12 = coro`. `top` must be 16-byte aligned.
    ///
    /// Layout (descending): trampoline return address at `top - 8`, then the
    /// six register slots popped by `raw_switch`. After the six pops and the
    /// `ret`, `rsp == top`, so the `call` inside the trampoline meets the
    /// SysV 16-byte alignment rule.
    pub(super) unsafe fn bootstrap(top: usize, coro: *mut super::Coro) -> usize {
        debug_assert_eq!(top % 16, 0);
        let sp = top - 7 * 8;
        let slots = sp as *mut u64;
        // SAFETY: the caller passes `top` inside a live stack buffer at
        // least 7 words deep, so `slots..slots+7` is in-bounds, writable
        // memory owned by the Coro; nothing else references it yet.
        unsafe {
            slots.add(0).write(0); // r15
            slots.add(1).write(0); // r14
            slots.add(2).write(0); // r13
            slots.add(3).write(coro as u64); // r12 -> first argument
            slots.add(4).write(0); // rbx
            slots.add(5).write(0); // rbp (stop frame walkers here)
            slots.add(6).write(trampoline as *const () as usize as u64); // ret target
        }
        sp
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod arch {
    //! Stub for targets without a switch implementation: never reached,
    //! because `SUPPORTED == false` backs every spawn with the OS-thread
    //! baton and no `Coro` is created.
    pub(super) unsafe extern "C" fn raw_switch(_save_sp: *mut usize, _new_sp: usize) {
        unreachable!("continuation hand-off is not supported on this target");
    }
    pub(super) unsafe fn bootstrap(_top: usize, _coro: *mut super::Coro) -> usize {
        unreachable!("continuation hand-off is not supported on this target");
    }
}

/// A stackful coroutine: a private stack plus the saved stack pointers of
/// the two sides of the switch. Owned by a `ThreadSlot`; the one scheduler
/// thread is its only resumer, never concurrently with the coroutine itself.
pub(crate) struct Coro {
    /// Backing memory of the private stack. Allocated with uninitialized
    /// content on purpose: pages are committed only as the coroutine
    /// actually grows into them.
    stack: Vec<u8>,
    /// 16-byte-aligned top-of-stack derived from `stack`.
    top: usize,
    /// Saved `rsp` of the suspended coroutine (valid while `started` and
    /// not `done`, or before the first resume as the bootstrap frame).
    coro_sp: usize,
    /// Saved `rsp` of whoever resumed the coroutine (valid while the
    /// coroutine runs; where `yield_to_scheduler` switches back to).
    sched_sp: usize,
    /// The slice body; taken by `coro_entry` on first resume.
    body: Option<Box<dyn FnOnce() + Send>>,
    /// The coroutine has been resumed at least once.
    started: bool,
    /// The body has returned (or been fully unwound); the stack holds no
    /// live frames and the coroutine must never be resumed again.
    done: bool,
}

// SAFETY: a Coro may be created on one OS thread and run on another (the
// one that calls `Engine::run`), but is only ever *accessed* by that single
// scheduler thread — granting, or tearing down after its loop ended. The
// body is `Send`; the raw stack is private memory.
unsafe impl Send for Coro {}

impl Coro {
    /// Create a suspended coroutine that will run `body` on a fresh stack of
    /// [`DEFAULT_STACK_BYTES`] when first resumed.
    pub fn new(body: Box<dyn FnOnce() + Send>) -> Self {
        // Compile-time constant per target; the engine checks `SUPPORTED`
        // before choosing this backing, so reaching here unsupported is a
        // bug.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(
                SUPPORTED,
                "continuation hand-off unsupported on this target"
            );
        }
        let mut stack: Vec<u8> = Vec::with_capacity(DEFAULT_STACK_BYTES);
        let base = stack.as_mut_ptr() as usize;
        let top = (base + stack.capacity()) & !15;
        // Plant the overflow canary at the lowest word (aligned up).
        let canary_at = ((base + 7) & !7) as *mut u64;
        // SAFETY: `canary_at` is the 8-aligned low end of the freshly
        // allocated stack buffer (capacity >= 64 KiB), in-bounds and
        // exclusively owned here.
        unsafe { canary_at.write(CANARY) };
        // The bootstrap frame needs the Coro's *final* address (it captures
        // a self-pointer), so it is seeded on first resume, after the owner
        // has stored the Coro at its permanent location.
        Coro {
            stack,
            top,
            coro_sp: 0,
            sched_sp: 0,
            body: Some(body),
            started: false,
            done: false,
        }
    }

    /// The canary word's address (low end of the stack).
    fn canary_at(&self) -> *const u64 {
        ((self.stack.as_ptr() as usize + 7) & !7) as *const u64
    }

    /// Resume the coroutine until its next yield (or completion). Returns
    /// `true` when the body has completed and the coroutine must not be
    /// resumed again.
    ///
    /// # Safety
    /// The caller must hold exclusive execution rights (the scheduler
    /// thread granting a `Parked` slot, or teardown after the scheduler loop
    /// ended), and the coroutine must be suspended and not `done`.
    pub unsafe fn resume(&mut self) -> bool {
        debug_assert!(!self.done, "resumed a completed coroutine");
        // Seed the bootstrap frame lazily so it captures the Coro's settled
        // address; the Coro must not move between resumes (the slot stores
        // it in place for its whole life).
        if !self.started {
            self.started = true;
            // SAFETY: `self.top` is the aligned top of this Coro's own
            // stack buffer, and `self` sits at its permanent address (the
            // slot never moves it between resumes).
            self.coro_sp = unsafe { arch::bootstrap(self.top, self as *mut Coro) };
        }
        // SAFETY: `self.coro_sp` was produced by `bootstrap` (first resume)
        // or by the coroutine's own `raw_switch` save (later resumes); the
        // caller's exclusivity contract guarantees the continuation is
        // suspended and owned by us.
        unsafe { arch::raw_switch(&mut self.sched_sp, self.coro_sp) };
        // Back on the scheduler stack. The coroutine either parked (saved
        // its sp via yield_to_scheduler) or completed (set `done`).
        assert!(
            // SAFETY: `canary_at` points at the low word of the live stack
            // buffer, written once in `new`; reading it races with nothing
            // (the coroutine just suspended on this very OS thread).
            unsafe { self.canary_at().read() } == CANARY,
            "simulated-thread stack overflow: the continuation overran its private \
             1 MiB stack"
        );
        self.done
    }

    /// Park the running coroutine: save its continuation and switch back to
    /// the scheduler side. Returns when somebody resumes it.
    ///
    /// # Safety
    /// Must be called *from inside* this coroutine (on its private stack).
    pub unsafe fn yield_to_scheduler(&mut self) {
        // SAFETY: we are running *on* this coroutine's stack (the caller's
        // contract), so `sched_sp` is the suspended resumer saved by the
        // `raw_switch` that entered us; switching back to it is the exact
        // inverse of that switch.
        unsafe { arch::raw_switch(&mut self.coro_sp, self.sched_sp) };
    }

    /// True once the body has run to completion.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True if the coroutine was resumed at least once.
    pub fn is_started(&self) -> bool {
        self.started
    }
}

impl Drop for Coro {
    fn drop(&mut self) {
        // A started-but-unfinished coroutine still has live frames (and
        // their destructors) parked on its stack. Dropping it would leak
        // them silently; the engine's teardown path is responsible for
        // resuming it under the shutdown flag first. Make the violation
        // loud in tests without aborting production teardown.
        debug_assert!(
            !self.started || self.done,
            "dropped a suspended continuation without unwinding it"
        );
    }
}

/// Rust-side entry of a fresh coroutine (reached through the naked
/// trampoline). Runs the body, marks completion, and switches away for good.
pub(crate) extern "sysv64" fn coro_entry(coro: *mut Coro) -> ! {
    // SAFETY: `coro` is the pointer seeded by `bootstrap`; the resumer gave
    // us exclusive access by switching here.
    let coro = unsafe { &mut *coro };
    if let Some(body) = coro.body.take() {
        // The body performs its own panic handling (catch_unwind +
        // record_panic); this outer catch only guarantees no unwind ever
        // reaches the bootstrap frame, which has no landing pads.
        let _ = panic::catch_unwind(AssertUnwindSafe(body));
    }
    coro.done = true;
    // SAFETY: still on this coroutine's private stack — the precondition of
    // yield_to_scheduler; the final switch back to the resumer.
    unsafe { coro.yield_to_scheduler() };
    // A completed coroutine must never be resumed.
    std::process::abort();
}

#[cfg(all(test, target_arch = "x86_64", not(dsm_force_no_coro)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Drive a coroutine that yields through a shared cell, without any
    /// engine machinery: resume/yield alternation and completion flags.
    #[test]
    fn coroutine_roundtrip_counts() {
        let hits = Arc::new(AtomicUsize::new(0));
        // The body needs to call yield_to_scheduler on its own Coro; thread
        // the pointer through a cell the same way ThreadSlot does.
        let shared: Arc<std::sync::atomic::AtomicPtr<Coro>> =
            Arc::new(std::sync::atomic::AtomicPtr::new(std::ptr::null_mut()));
        let h2 = hits.clone();
        let s2 = shared.clone();
        let body = Box::new(move || {
            for _ in 0..5 {
                h2.fetch_add(1, Ordering::SeqCst);
                let p = s2.load(Ordering::SeqCst);
                // SAFETY: `p` points at the pinned Boxed Coro this body runs
                // on; we are on its stack, exactly the yield precondition.
                unsafe { (*p).yield_to_scheduler() };
            }
        });
        let mut coro = Box::new(Coro::new(body));
        shared.store(&mut *coro, Ordering::SeqCst);
        let mut resumes = 0;
        // SAFETY: single-threaded test — this loop is the only resumer, and
        // the loop condition stops at completion.
        while !unsafe { coro.resume() } {
            resumes += 1;
            assert!(resumes <= 6, "coroutine failed to complete");
        }
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(resumes, 5);
        assert!(coro.is_done());
    }

    #[test]
    fn panic_inside_body_is_contained() {
        let body = Box::new(|| {
            let caught = panic::catch_unwind(|| panic!("inner"));
            assert!(caught.is_err());
        });
        let mut coro = Box::new(Coro::new(body));
        // SAFETY: sole resumer of a fresh suspended coroutine.
        assert!(unsafe { coro.resume() });
    }

    #[test]
    fn unstarted_coroutine_drops_body_without_running() {
        struct Guard(Arc<AtomicUsize>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let guard = Guard(drops.clone());
        let coro = Box::new(Coro::new(Box::new(move || {
            let _g = &guard;
            unreachable!("body must not run");
        })));
        assert!(!coro.is_started());
        drop(coro);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "captured state must drop");
    }
}
