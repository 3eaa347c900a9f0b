//! Stress test of the scheduler/thread hand-off: many short-lived simulated
//! threads with pseudo-random sleeps, yields and nested spawns. The hand-off
//! is purely a wall-clock mechanism and must never influence simulated
//! behaviour, so the runs are pinned as literals: the default build
//! (continuations on the scheduler's OS thread) and the `--cfg
//! dsm_force_no_coro` build (one OS thread per simulated thread, futex-style
//! baton) both have to reproduce them, which is what keeps baton ≡
//! continuation asserted without an in-process switch.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dsmpm2_sim::{
    channel, Engine, EngineCtl, RunReport, SimDuration, SimTime, SliceCell, SliceRc, WaitSet,
};

/// Deterministic xorshift so every run sees the same "random" schedule.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A root thread spawns waves of short-lived children; each child does a
/// pseudo-random mix of yields, sleeps and compute charges, and every eighth
/// child spawns a grandchild. This exercises spawn-park races (on the baton:
/// Created -> Parked while the scheduler waits), rapid re-grants and the
/// recycling of each thread's worker at its last grant.
#[test]
fn thread_storm_matches_its_pinned_run() {
    let mut engine = Engine::new();
    let work_done = Arc::new(AtomicU64::new(0));
    let wd = work_done.clone();
    engine.spawn("root", move |h| {
        let mut rng = 0x9E3779B97F4A7C15u64;
        for wave in 0..20u64 {
            for child in 0..25u64 {
                let seed = xorshift(&mut rng);
                let wd = wd.clone();
                h.spawn(format!("w{wave}-c{child}"), move |h| {
                    let mut rng = seed | 1;
                    for _ in 0..(rng % 7) + 1 {
                        match xorshift(&mut rng) % 3 {
                            0 => h.yield_now(),
                            1 => h.sleep(SimDuration::from_nanos(xorshift(&mut rng) % 900 + 1)),
                            _ => h.charge(SimDuration::from_nanos(xorshift(&mut rng) % 300)),
                        }
                    }
                    if seed.is_multiple_of(8) {
                        let wd2 = wd.clone();
                        h.spawn("grandchild", move |h| {
                            h.sleep(SimDuration::from_nanos(5));
                            wd2.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    wd.fetch_add(1, Ordering::SeqCst);
                });
            }
            h.sleep(SimDuration::from_micros(1));
        }
    });
    let report = engine.run().expect("storm must complete");
    // Events and switches were 2 182 each while a thread that ended owing a
    // charge took one more slice to sleep it off: 167 of the 549 did.
    assert_eq!(
        report,
        RunReport {
            final_time: SimTime::from_nanos(21_518),
            events: 2_015,
            context_switches: 2_015,
            threads_spawned: 549,
        }
    );
    assert_eq!(work_done.load(Ordering::SeqCst), 548);
}

/// A finished thread's worker serves the next spawn: 10 000 children spawned
/// one after another, each ending in its first slice, all run on one worker
/// — at one stack address on one OS thread — and cost one event each.
#[test]
fn children_spawned_one_after_another_run_on_one_worker() {
    let mut engine = Engine::new();
    let workers = Arc::new(Mutex::new(HashSet::new()));
    let w = workers.clone();
    engine.spawn("parent", move |h| {
        for _ in 0..10_000 {
            let w = w.clone();
            h.spawn("child", move |h| {
                let local = 0u8;
                let frame = std::hint::black_box(&local) as *const u8 as usize;
                let os_thread = std::thread::current().id();
                w.lock().expect("not poisoned").insert((os_thread, frame));
                h.charge(SimDuration::from_nanos(300));
            });
            h.sleep(SimDuration::from_micros(1));
        }
    });
    let report = engine.run().expect("children that never block complete");
    assert_eq!((report.events, report.threads_spawned), (20_001, 10_001));
    assert_eq!(
        workers.lock().expect("not poisoned").len(),
        1,
        "every child ran on one worker"
    );
}

/// WaitSet ping-pong across a crowd of waiters: notify_one/notify_all wake
/// the same threads at the same virtual times under either hand-off.
#[test]
fn waitset_crowd_matches_its_pinned_run() {
    let mut engine = Engine::new();
    let ws = Arc::new(WaitSet::new());
    let token = Arc::new(AtomicU64::new(0));
    // Completion virtual time per waiter, recorded into the waiter's own slot.
    let done_at: Arc<Vec<AtomicU64>> = Arc::new((0..40).map(|_| AtomicU64::new(0)).collect());
    for i in 0..40u64 {
        let ws = ws.clone();
        let token = token.clone();
        let done_at = done_at.clone();
        engine.spawn(format!("waiter{i}"), move |h| {
            ws.wait_until(h, || token.load(Ordering::SeqCst) > i);
            done_at[i as usize].store(h.now().as_nanos(), Ordering::SeqCst);
        });
    }
    let ws2 = ws.clone();
    engine.spawn("driver", move |h| {
        for round in 0..40u64 {
            h.sleep(SimDuration::from_micros(3));
            token.store(round + 1, Ordering::SeqCst);
            if round % 5 == 0 {
                ws2.notify_all((), h.ctl(), SimDuration::ZERO);
            } else {
                ws2.notify_one((), h.ctl(), SimDuration::ZERO);
                ws2.notify_one((), h.ctl(), SimDuration::ZERO);
            }
        }
        // Flush any stragglers.
        h.sleep(SimDuration::from_micros(3));
        ws2.notify_all((), h.ctl(), SimDuration::ZERO);
    });
    let report = engine.run().expect("crowd must complete");
    let times: Vec<u64> = done_at.iter().map(|t| t.load(Ordering::SeqCst)).collect();
    assert!(times.iter().all(|&t| t > 0), "every waiter completed");
    let digest = times.iter().fold(0u64, |acc, &t| {
        acc.wrapping_mul(0x100000001B3).wrapping_add(t)
    });
    assert_eq!(
        (report.final_time.as_nanos(), report.events, digest),
        (123_000, 348, 14_761_836_492_225_325_616)
    );
}

/// Scheduler state takes no lock, it is borrowed; so whatever the scheduler
/// is running must find every borrow released. From inside a `Call` event and
/// from inside a slice: schedule a call, spawn a thread, `notify_all` a wait
/// set whose waiters come back and register again, and send on a channel
/// whose receiver is parked. A borrow of the event heap, the thread table, a
/// wait set or a channel still live at any of those call-outs would fail the
/// run with "borrowed while an earlier borrow is live".
#[test]
fn events_and_slices_may_reenter_the_scheduler() {
    let mut engine = Engine::new();
    let ws = Arc::new(WaitSet::new());
    let (tx, rx) = channel::<u64>(engine.ctl());
    let generation = Arc::new(AtomicU64::new(0));
    let [calls, spawned, woken, received] = [(); 4].map(|()| Arc::new(AtomicU64::new(0)));

    for w in 0..2 {
        let (ws, generation, woken) = (ws.clone(), generation.clone(), woken.clone());
        engine.spawn(format!("waiter{w}"), move |h| {
            for round in 1..=2 {
                ws.wait_until(h, || generation.load(Ordering::SeqCst) >= round);
                woken.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    let r = received.clone();
    engine.spawn("receiver", move |h| {
        for _ in 0..2 {
            let tag = rx.recv(h);
            r.store(r.load(Ordering::SeqCst) * 10 + tag, Ordering::SeqCst);
        }
    });

    let poke = {
        let (ws, calls, spawned) = (ws.clone(), calls.clone(), spawned.clone());
        move |ctl: &EngineCtl, tag: u64| {
            let calls = calls.clone();
            ctl.call_at(ctl.now(), move |_| {
                calls.fetch_add(1, Ordering::SeqCst);
            });
            let spawned = spawned.clone();
            ctl.spawn("spawned", move |h| {
                h.yield_now();
                spawned.fetch_add(1, Ordering::SeqCst);
            });
            generation.fetch_add(1, Ordering::SeqCst);
            assert_eq!(ws.notify_all((), ctl, SimDuration::ZERO), 2);
            tx.send_from_ctl(ctl, tag, SimDuration::ZERO);
        }
    };
    let from_event = poke.clone();
    engine
        .ctl()
        .call_at(SimTime::from_micros(10), move |ctl| from_event(ctl, 1));
    engine.spawn("poker", move |h| {
        h.sleep(SimDuration::from_micros(20));
        poke(h.ctl(), 2);
    });

    let report = engine.run().expect("no borrow is live at a call-out");
    let count = |c: &AtomicU64| c.load(Ordering::SeqCst);
    assert_eq!(
        (
            count(&calls),
            count(&spawned),
            count(&woken),
            count(&received)
        ),
        (2, 2, 4, 12)
    );
    assert!(ws.is_empty());
    assert_eq!((report.events, report.threads_spawned), (20, 6));
}

/// No borrow of a wait set or of the event heap survives a yield: four
/// threads pass a turn around through one `WaitSet`, each yielding, sleeping
/// or charging at seeded points between `wait_until` and `notify_all`, so
/// every thread registers, parks and is woken while the others are mid-way
/// through the same calls. The counts are exact and the run is pinned, on
/// both hand-offs (four OS threads pass the baton on the no-coro lane).
#[test]
fn turn_taking_through_a_wait_set_matches_its_pinned_run() {
    const THREADS: u64 = 4;
    const TURNS: u64 = 2_000;
    let mut engine = Engine::new();
    let ws = Arc::new(WaitSet::new());
    let turn = Arc::new(AtomicU64::new(0));
    let spurious = Arc::new(AtomicU64::new(0));
    for t in 0..THREADS {
        let (ws, turn, spurious) = (ws.clone(), turn.clone(), spurious.clone());
        engine.spawn(format!("player{t}"), move |h| {
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
            for _ in 0..TURNS {
                ws.wait_until(h, || {
                    let mine = turn.load(Ordering::SeqCst) % THREADS == t;
                    spurious.fetch_add(u64::from(!mine), Ordering::SeqCst);
                    mine
                });
                match xorshift(&mut rng) % 4 {
                    0 => h.yield_now(),
                    1 => h.sleep(SimDuration::from_nanos(xorshift(&mut rng) % 400 + 1)),
                    2 => h.charge(SimDuration::from_nanos(xorshift(&mut rng) % 200)),
                    _ => {}
                }
                turn.fetch_add(1, Ordering::SeqCst);
                ws.notify_all((), h.ctl(), SimDuration::ZERO);
            }
        });
    }
    let report = engine.run().expect("every turn is taken");
    assert_eq!(turn.load(Ordering::SeqCst), THREADS * TURNS);
    assert!(ws.is_empty());
    assert_eq!(
        (report, spurious.load(Ordering::SeqCst)),
        (
            RunReport {
                final_time: SimTime::from_nanos(477_029),
                events: 25_456,
                context_switches: 25_456,
                threads_spawned: THREADS,
            },
            19_465
        )
    );
}

/// Teardown under fire: a panic in one thread while a hundred others are
/// parked or runnable must reclaim every one of them and report the panic.
#[test]
fn panic_amid_storm_tears_down() {
    let mut engine = Engine::new();
    for i in 0..100u64 {
        engine.spawn(format!("spinner{i}"), move |h| loop {
            h.sleep(SimDuration::from_micros(i % 9 + 1));
        });
    }
    engine.spawn("bomb", |h| {
        h.sleep(SimDuration::from_micros(40));
        panic!("storm bomb");
    });
    match engine.run() {
        Err(dsmpm2_sim::SimError::ThreadPanic {
            thread, message, ..
        }) => {
            assert_eq!(thread, "bomb");
            assert!(message.contains("storm bomb"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

/// A panic *inside a slice* unwinds the simulated thread's stack, not the
/// scheduler's: the run must record the panicking thread's name and payload,
/// tear down the parked threads of the same run, and leave the engine
/// joinable (no hang, no abort). Regression for the continuation's
/// catch_unwind seam.
#[test]
fn panic_inside_a_slice_is_recorded_not_propagated() {
    let mut engine = Engine::new();
    // A parked thread that teardown must unwind quietly: its wait set is
    // never notified.
    engine.spawn("parked", |h| {
        WaitSet::new().wait_until(h, || false);
        unreachable!("never woken");
    });
    engine.spawn("bomb", |h| {
        h.sleep(SimDuration::from_micros(7));
        panic!("slice bomb");
    });
    match engine.run() {
        Err(dsmpm2_sim::SimError::ThreadPanic {
            thread, message, ..
        }) => {
            assert_eq!(thread, "bomb");
            assert!(message.contains("slice bomb"), "got '{message}'");
        }
        other => panic!("expected ThreadPanic, got {other:?}"),
    }
}

/// One `SliceRc` cloned and dropped from many workers, one slice after
/// another: under `--cfg dsm_force_no_coro` consecutive slices run on
/// different OS threads, and the plain counts must still add up exactly.
/// Each thread clones the handle thousands of times across yields and
/// sleeps, drops all but `t + 1` of its clones along the way, and leaves
/// in a shared keep. After the run the host counts its own handle plus the
/// kept clones, and its own alone once the keep is emptied.
#[test]
fn slice_rc_counts_add_up_across_workers() {
    const THREADS: u64 = 8;
    const CLONES: u64 = 5_000;
    let counted = SliceRc::new(SliceCell::new(0u64));
    let keep = SliceRc::new(SliceCell::new(Vec::new()));
    let mut engine = Engine::new();
    for t in 0..THREADS {
        let (counted, keep) = (counted.clone(), keep.clone());
        engine.spawn(format!("cloner{t}"), move |h| {
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
            let mut held = Vec::new();
            for _ in 0..CLONES {
                held.push(counted.clone());
                *counted.borrow() += 1;
                match xorshift(&mut rng) % 8 {
                    0 => h.yield_now(),
                    1 => h.sleep(SimDuration::from_nanos(xorshift(&mut rng) % 500 + 1)),
                    2 | 3 if held.len() as u64 > t + 1 => drop(held.pop()),
                    _ => {}
                }
                if held.len() > 64 {
                    held.truncate(t as usize + 1);
                }
            }
            held.truncate(t as usize + 1);
            keep.borrow().extend(held);
        });
    }
    engine
        .run()
        .expect("the cloners share nothing but the handles");
    let kept = (1..=THREADS).sum::<u64>() as usize;
    assert_eq!(keep.borrow().len(), kept);
    assert_eq!(SliceRc::strong_count(&counted), 1 + kept);
    assert_eq!(*counted.borrow(), THREADS * CLONES);
    keep.borrow().clear();
    assert_eq!(SliceRc::strong_count(&counted), 1);
    assert_eq!(SliceRc::strong_count(&keep), 1);
}
