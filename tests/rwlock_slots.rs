//! `RwLock` reader slots: a private lock counts its readers in per-LWP
//! slots, and a writer drains them before it holds the lock.
//!
//! Three things can go wrong that the single-counter lock never had to
//! face. A reader that blocks inside its hold may resume on another LWP and
//! leave through that LWP's slot, so only the sum of the slots is right. A
//! writer that waits for the slots to drain must park rather than spin, or
//! with one LWP it keeps that LWP from the reader it waits for. And an
//! upgrade must drain the other readers' slots as a writer does. (The rest
//! of the API on slot locks is covered by the unit tests in `rwlock.rs`.)
//! Every test that can stall runs under a watchdog that turns a lost wakeup
//! into a failure.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as HostMutex, MutexGuard};
use std::time::{Duration, Instant};

use sunos_mt::sync::{Mutex, RwLock, RwType, Sema, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder, ThreadId};

/// No progress for this long means a wakeup was lost.
const STALL: Duration = Duration::from_secs(10);

/// The pool size is process-wide: the tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: HostMutex<()> = HostMutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn spawn(body: impl FnOnce() + Send + 'static) -> ThreadId {
    ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(Box::new(body))
        .expect("spawn")
}

/// Polls `progress` until `done` holds, failing if `progress` stops
/// moving for [`STALL`].
fn watch(what: &str, progress: impl Fn() -> usize, done: impl Fn() -> bool) {
    let mut seen = progress();
    let mut moved = Instant::now();
    while !done() {
        std::thread::sleep(Duration::from_millis(2));
        let now = progress();
        if now != seen {
            seen = now;
            moved = Instant::now();
        }
        assert!(
            moved.elapsed() < STALL,
            "watchdog: {what} stalled at {seen} — a wakeup was lost"
        );
    }
}

#[test]
fn migrating_readers_and_a_writer_exclude() {
    const READERS: usize = 64;
    const ROUNDS: usize = 200;
    const WRITES: usize = 400;
    let _serial = serial();
    threads::set_concurrency(2).expect("setconcurrency");
    struct World {
        rw: RwLock,
        // Contended by every reader inside its hold: readers park at user
        // level and resume on whichever LWP picks them up.
        m: Mutex,
        inside: AtomicUsize,
        violations: AtomicUsize,
        progress: AtomicUsize,
        readers_done: AtomicUsize,
    }
    let w = Arc::new(World {
        rw: RwLock::new(SyncType::DEFAULT),
        m: Mutex::new(SyncType::DEFAULT),
        inside: AtomicUsize::new(0),
        violations: AtomicUsize::new(0),
        progress: AtomicUsize::new(0),
        readers_done: AtomicUsize::new(0),
    });
    let mut ids = Vec::new();
    for _ in 0..READERS {
        let w = Arc::clone(&w);
        ids.push(spawn(move || {
            for _ in 0..ROUNDS {
                w.rw.enter(RwType::Reader);
                w.inside.fetch_add(1, Ordering::SeqCst);
                w.m.enter();
                threads::yield_now();
                w.m.exit();
                w.inside.fetch_sub(1, Ordering::SeqCst);
                w.rw.exit();
                w.progress.fetch_add(1, Ordering::Relaxed);
            }
            w.readers_done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    let writer = Arc::clone(&w);
    ids.push(spawn(move || {
        let w = writer;
        for _ in 0..WRITES {
            w.rw.enter(RwType::Writer);
            if w.inside.load(Ordering::SeqCst) != 0 {
                w.violations.fetch_add(1, Ordering::SeqCst);
            }
            w.rw.exit();
            w.progress.fetch_add(1, Ordering::Relaxed);
            threads::yield_now();
        }
    }));
    watch(
        "readers/writer rounds",
        || w.progress.load(Ordering::Relaxed),
        || w.progress.load(Ordering::Relaxed) == READERS * ROUNDS + WRITES,
    );
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    assert_eq!(
        w.violations.load(Ordering::SeqCst),
        0,
        "writer saw a reader inside"
    );
    assert_eq!(w.readers_done.load(Ordering::SeqCst), READERS);
    assert_eq!(w.rw.holders(), (false, 0), "slots must sum to zero");
    threads::set_concurrency(0).expect("setconcurrency");
}

#[test]
fn writer_parks_behind_a_reader_parked_inside_on_one_lwp() {
    let _serial = serial();
    threads::set_concurrency(1).expect("setconcurrency");
    let t0 = Instant::now();
    while threads::concurrency() > 1 {
        assert!(t0.elapsed() < STALL, "pool did not shrink to one LWP");
        std::thread::sleep(Duration::from_millis(1));
    }
    struct World {
        rw: RwLock,
        inside: Sema,
        release: Sema,
        writer_done: AtomicBool,
        steps: AtomicUsize,
    }
    let w = Arc::new(World {
        rw: RwLock::new(SyncType::DEFAULT),
        inside: Sema::new(0, SyncType::DEFAULT),
        release: Sema::new(0, SyncType::DEFAULT),
        writer_done: AtomicBool::new(false),
        steps: AtomicUsize::new(0),
    });
    let r = Arc::clone(&w);
    let reader = spawn(move || {
        r.rw.enter(RwType::Reader);
        r.inside.v();
        // Parked at user level inside the hold: the only LWP is free.
        r.release.p();
        r.rw.exit();
        r.steps.fetch_add(1, Ordering::SeqCst);
    });
    w.inside.p();
    let wr = Arc::clone(&w);
    let writer = spawn(move || {
        wr.rw.enter(RwType::Writer);
        wr.writer_done.store(true, Ordering::SeqCst);
        wr.rw.exit();
        wr.steps.fetch_add(1, Ordering::SeqCst);
    });
    // Let the writer reach its drain. A writer that spun there would keep
    // the only LWP from the reader it waits for.
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        !w.writer_done.load(Ordering::SeqCst),
        "writer got in beside a reader"
    );
    w.release.v();
    watch(
        "reader and writer",
        || w.steps.load(Ordering::SeqCst),
        || w.steps.load(Ordering::SeqCst) == 2,
    );
    threads::wait(Some(reader)).expect("wait");
    threads::wait(Some(writer)).expect("wait");
    assert_eq!(w.rw.holders(), (false, 0));
    threads::set_concurrency(0).expect("setconcurrency");
}

#[test]
fn upgrade_drains_another_reader() {
    let _serial = serial();
    let l = Arc::new(RwLock::new(SyncType::DEFAULT));
    l.enter(RwType::Reader);
    // With another reader inside, the upgrade waits for it to drain.
    let other = Arc::clone(&l);
    let entered = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let signal = Arc::clone(&entered);
    let left = Arc::new(AtomicBool::new(false));
    let mark = Arc::clone(&left);
    let h = std::thread::spawn(move || {
        other.enter(RwType::Reader);
        signal.v();
        std::thread::sleep(Duration::from_millis(20));
        mark.store(true, Ordering::SeqCst);
        other.exit();
    });
    entered.p();
    assert!(l.try_upgrade());
    assert!(
        left.load(Ordering::SeqCst),
        "upgrade returned before the other reader left"
    );
    assert_eq!(l.holders(), (true, 0));
    l.exit();
    h.join().unwrap();
    assert_eq!(l.holders(), (false, 0));
}
