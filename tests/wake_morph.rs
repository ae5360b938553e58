//! Wakeup-path regression tests for wait morphing.
//!
//! `cv_broadcast` with the mutex held must hand the herd to the mutex's
//! queue instead of waking everyone at once — at most two futex syscalls
//! for any number of waiters — and a deadline that fires while a waiter
//! sits morphed on the mutex queue must still be reported as a signal,
//! because the waiter already consumed a wakeup a sibling will never get.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunos_mt::sync::{Condvar, Mutex, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};
use sunos_mt::trace::{self, Tag};

/// Trace counters are process-global, so the counting tests take turns.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

const WAITERS: usize = 32;

struct Monitor {
    m: Mutex,
    cv: Condvar,
    go: AtomicBool,
    entered: AtomicUsize,
}

impl Monitor {
    fn new(mutex_kind: SyncType) -> Monitor {
        Monitor {
            m: Mutex::new(mutex_kind),
            cv: Condvar::new(SyncType::DEFAULT),
            go: AtomicBool::new(false),
            entered: AtomicUsize::new(0),
        }
    }

    /// Blocks until `n` waiters have released the mutex inside their wait.
    /// Holding the mutex while reading the count proves anyone who bumped
    /// it has since left the monitor; the grace sleep lets the stragglers
    /// finish parking.
    fn await_waiters(&self, n: usize) {
        loop {
            self.m.enter();
            let seen = self.entered.load(Ordering::SeqCst);
            self.m.exit();
            if seen == n {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn broadcast_morphs_instead_of_thundering() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The adaptive mutex too: its condition-variable reacquire runs the
    // same contended path as `mutex_enter` (spin, then sleep) and must
    // still leave the word contended for the rest of the morphed chain.
    for kind in [SyncType::DEFAULT, SyncType::ADAPTIVE] {
        broadcast_morphs(kind);
    }
}

fn broadcast_morphs(mutex_kind: SyncType) {
    trace::enable();

    let mon = Arc::new(Monitor::new(mutex_kind));
    let mut ids = Vec::new();
    for _ in 0..WAITERS {
        let s = Arc::clone(&mon);
        ids.push(
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    s.m.enter();
                    s.entered.fetch_add(1, Ordering::SeqCst);
                    while !s.go.load(Ordering::SeqCst) {
                        s.cv.wait(&s.m);
                    }
                    s.m.exit();
                })
                .expect("spawn waiter"),
        );
    }
    mon.await_waiters(WAITERS);

    // Broadcast with the mutex held: `requeue_target` marks it contended
    // and the herd morphs onto its queue, so the whole wakeup costs at
    // most two futex syscalls (the wake-one-requeue-rest, plus at worst
    // one wake-all fallback) — not one per waiter.
    mon.m.enter();
    mon.go.store(true, Ordering::SeqCst);
    let before = trace::counters();
    mon.cv.broadcast();
    let after = trace::counters();
    mon.m.exit();

    let wakes = after.get(Tag::FutexWake) - before.get(Tag::FutexWake);
    let requeues = after.get(Tag::CvRequeue) - before.get(Tag::CvRequeue);
    assert!(
        wakes <= 2,
        "broadcast to {WAITERS} waiters issued {wakes} futex wake syscalls"
    );
    assert!(requeues >= 1, "broadcast never took the morph path");

    for id in ids {
        threads::wait(Some(id)).expect("join waiter");
    }
    trace::disable();
}

#[test]
fn deadline_during_morph_is_still_a_signal() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let mon = Arc::new(Monitor::new(SyncType::DEFAULT));
    let s = Arc::clone(&mon);
    let id = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            s.m.enter();
            s.entered.fetch_add(1, Ordering::SeqCst);
            let mut signaled = true;
            while !s.go.load(Ordering::SeqCst) {
                signaled = s.cv.timed_wait(&s.m, Duration::from_secs(1));
                if !signaled {
                    break;
                }
            }
            s.m.exit();
            assert!(
                s.go.load(Ordering::SeqCst),
                "waiter timed out before the broadcast arrived"
            );
            assert!(
                signaled,
                "deadline fired while morphed on the mutex queue and was \
                 wrongly reported as a timeout"
            );
        })
        .expect("spawn waiter");
    mon.await_waiters(1);

    // Broadcast, then keep holding the mutex until well past the waiter's
    // deadline: the timer fires while the waiter sits morphed on the
    // mutex queue, and the timeout must be voided because the broadcast
    // already committed a wakeup to this thread.
    let t0 = Instant::now();
    mon.m.enter();
    mon.go.store(true, Ordering::SeqCst);
    mon.cv.broadcast();
    std::thread::sleep(Duration::from_millis(1_300));
    mon.m.exit();
    assert!(
        t0.elapsed() >= Duration::from_millis(1_200),
        "broadcaster released the mutex before the deadline could fire"
    );

    threads::wait(Some(id)).expect("join waiter");
}
