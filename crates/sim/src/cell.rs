//! [`SliceCell`]: state shared between simulated threads without a lock.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};

/// A value borrowed exclusively, one engine-ordered piece of code at a time.
///
/// One engine runs one piece of simulated code at a time, so state that only
/// simulated code reaches needs no mutual exclusion — the hand-off already
/// provides it. A `SliceCell<T>` is the `Mutex<T>` such state used to sit in,
/// minus the atomic read-modify-write on the way in and out: a borrow flag, a
/// guard that clears it, and a check — kept in every build — that no second
/// borrow starts while one is live. Where the `Mutex` deadlocked the
/// scheduler on such a bug, the cell panics with its type and the borrower's
/// location.
///
/// # Who may touch a cell
///
/// Three kinds of code, totally ordered by the engine:
///
/// * a *slice* — a simulated thread between two yields;
/// * a *scheduler event* — a closure the engine runs between slices (message
///   arrival, RPCs answered at arrival, transport hooks);
/// * the *host thread*, before [`crate::Engine::run`] is called and after it
///   returns (set-up, reading results).
///
/// A guard must not be held across a yield (`sleep`, a wait, a blocking
/// receive...): the next slice to borrow the cell would find it taken, and
/// panics.
#[derive(Default)]
pub struct SliceCell<T> {
    borrowed: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: a `SliceCell` hands out `&mut T` from `&self`, so sharing it is
// sound only if borrows never overlap. The three kinds of code that reach a
// cell — slices of simulated threads, scheduler events between them, and the
// host thread outside `Engine::run` — are totally ordered by the engine's
// hand-off: on one OS thread where a slice is a stack switch, and through the
// baton's SeqCst phase store/load pair where each simulated thread has an OS
// thread of its own (the same pair that publishes every other write of the
// previous slice to the next). Within that order the `borrowed` flag, checked
// in every build, turns the two overlaps one engine can still produce —
// re-entrancy, and a guard carried across a yield — into a panic before a
// second `&mut T` exists. `T: Send` because successive borrowers may be
// different OS threads.
unsafe impl<T: Send> Sync for SliceCell<T> {}

impl<T> SliceCell<T> {
    /// A cell holding `value`, not borrowed.
    pub const fn new(value: T) -> Self {
        SliceCell {
            borrowed: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Borrow the value until the returned guard is dropped.
    ///
    /// # Panics
    /// Panics, naming the cell's type and the caller, if a guard of this
    /// cell is still alive.
    #[inline]
    #[track_caller]
    pub fn borrow(&self) -> SliceRef<'_, T> {
        // Debug builds take the flag with a read-modify-write, so that two OS
        // threads racing for it — a breach of the contract above, not of one
        // engine's making — cannot both see it clear. Optimised builds rely
        // on the hand-off's order: a plain load and store, no `lock` prefix.
        let taken = if cfg!(debug_assertions) {
            self.borrowed.swap(true, Ordering::Acquire)
        } else {
            let taken = self.borrowed.load(Ordering::Relaxed);
            self.borrowed.store(true, Ordering::Relaxed);
            taken
        };
        if taken {
            already_borrowed::<T>(Location::caller());
        }
        SliceRef {
            // SAFETY: the flag was clear and is now set, so no other guard —
            // hence no other reference into the cell — exists until this
            // one's `Drop` clears it; see the `Sync` impl for why the check
            // cannot race.
            value: unsafe { &mut *self.value.get() },
            borrowed: &self.borrowed,
        }
    }
}

#[cold]
#[inline(never)]
fn already_borrowed<T>(at: &Location<'_>) -> ! {
    panic!(
        "SliceCell<{}> borrowed at {at} while an earlier borrow is live: re-entrant use, or a \
         guard held across a yield",
        std::any::type_name::<T>()
    )
}

impl<T> fmt::Debug for SliceCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SliceCell")
            .field("borrowed", &self.borrowed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Exclusive access to the value of a [`SliceCell`]; the cell is free again
/// when this is dropped, also by a panic unwinding through it.
pub struct SliceRef<'a, T> {
    value: &'a mut T,
    borrowed: &'a AtomicBool,
}

impl<T> Deref for SliceRef<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        self.value
    }
}

impl<T> DerefMut for SliceRef<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.value
    }
}

impl<T> Drop for SliceRef<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.borrowed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    use super::*;
    use crate::{Engine, SimDuration, SimError};

    struct Ledger(u64);

    /// A second borrow while a guard is live panics — in debug builds and,
    /// because the check is not a `debug_assert`, in `cargo test --release`
    /// — with the cell's type and this file in the message. At the parent
    /// commit the state sat in a `Mutex` and this was a self-deadlock.
    #[test]
    fn a_second_borrow_panics_with_the_type_and_the_caller() {
        let cell = SliceCell::new(Ledger(1));
        let first = cell.borrow();
        let payload = catch_unwind(AssertUnwindSafe(|| cell.borrow().0))
            .expect_err("the overlapping borrow must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("the cell panics with a formatted message");
        assert!(message.contains("SliceCell<"), "got '{message}'");
        assert!(message.contains("Ledger"), "got '{message}'");
        assert!(message.contains(file!()), "got '{message}'");
        // The failed borrow took nothing: the first guard still owns the
        // cell, and gives it back.
        assert_eq!(first.0, 1);
        drop(first);
        cell.borrow().0 += 1;
        assert_eq!(cell.borrow().0, 2);
    }

    /// A simulated thread that panics while it holds a guard leaves the cell
    /// borrowable: the guard's `Drop` runs on the unwind and there is no
    /// poison flag. (A `std` mutex would be poisoned here; the vendored
    /// `parking_lot` one, like the cell, is not.)
    #[test]
    fn a_panic_under_a_guard_frees_the_cell() {
        let cell = Arc::new(SliceCell::new(Ledger(0)));
        let mut engine = Engine::new();
        let c = cell.clone();
        engine.spawn("bomb", move |h| {
            let mut guard = c.borrow();
            guard.0 = 7;
            h.charge(SimDuration::from_micros(1));
            panic!("bomb under a guard");
        });
        match engine.run() {
            Err(SimError::ThreadPanic { thread, message }) => {
                assert_eq!(thread, "bomb");
                assert!(message.contains("bomb under a guard"), "got '{message}'");
            }
            other => panic!("expected the bomb's panic, got {other:?}"),
        }
        assert_eq!(cell.borrow().0, 7);
    }

    /// A guard carried across a yield is the contract's other violation: the
    /// next slice to borrow the cell panics, and `Engine::run` returns that
    /// as an error naming the borrower and the cell. With the `Mutex` of the
    /// parent commit the borrower blocked the one scheduler thread and this
    /// run never returned.
    #[test]
    fn a_guard_held_across_a_yield_fails_the_next_borrower() {
        let cell = Arc::new(SliceCell::new(Ledger(0)));
        let mut engine = Engine::new();
        let c = cell.clone();
        engine.spawn("hoarder", move |h| {
            let _guard = c.borrow();
            h.sleep(SimDuration::from_micros(10));
        });
        let c = cell.clone();
        engine.spawn("borrower", move |h| {
            h.sleep(SimDuration::from_micros(1));
            c.borrow().0 += 1;
        });
        match engine.run() {
            Err(SimError::ThreadPanic { thread, message }) => {
                assert_eq!(thread, "borrower");
                assert!(message.contains("SliceCell<"), "got '{message}'");
                assert!(message.contains("Ledger"), "got '{message}'");
                assert!(message.contains("held across a yield"), "got '{message}'");
            }
            other => panic!("expected the borrower's panic, got {other:?}"),
        }
        // Teardown unwound the hoarder, whose guard gave the cell back.
        assert_eq!(cell.borrow().0, 0);
    }

    /// The exclusivity is the hand-off's, not the continuation's: under
    /// `--cfg dsm_force_no_coro` each of these simulated threads is an OS
    /// thread of its own, every yield passes the baton to another one, and
    /// the non-atomic bumps still add up exactly (in debug builds an overlap
    /// would also trip the flag's `swap`). On the default lane the same run
    /// is four continuations on one OS thread. No such test exists at the
    /// parent, where the counters are `fetch_add`s.
    #[test]
    fn bumps_from_every_simulated_thread_add_up_exactly() {
        const THREADS: u64 = 4;
        const BUMPS: u64 = 100_000;
        let cell = Arc::new(SliceCell::new(0u64));
        let mut engine = Engine::new();
        for t in 0..THREADS {
            let cell = cell.clone();
            engine.spawn(format!("bumper{t}"), move |h| {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                for _ in 0..BUMPS {
                    *cell.borrow() += 1;
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    match rng % 64 {
                        0 => h.yield_now(),
                        1 => h.sleep(SimDuration::from_nanos(rng % 500 + 1)),
                        _ => {}
                    }
                }
            });
        }
        engine
            .run()
            .expect("the bumpers share nothing but the cell");
        assert_eq!(*cell.borrow(), THREADS * BUMPS);
    }
}
