//! `RwLock` lost-wakeup regression: a writer's `rw_exit` must not miss a
//! second writer that announces itself at the same moment.
//!
//! The releaser clears the state word and then reads the waiting-writer
//! count; the waiter bumps the count and then reads the state word. If the
//! releaser's store is not ordered before its load, both can read the old
//! value: the waiter parks and nobody wakes it. Because a waiting writer
//! holds off new readers, the releaser's next *read* then queues behind it
//! for good, and so does every other reader. Two threads alternating
//! write/read (the database checkpoint shape) make that a permanent stall,
//! which a watchdog turns into a failure.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunos_mt::sync::{RwLock, RwType, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

const WRITERS: usize = 2;
const READERS: usize = 6;
/// Write/read rounds per writer. The unfixed lock stalled after about
/// 1.5 M rounds in the mean (8 of 10 runs within 4 M), so the 8 M rounds
/// here miss it about once in two hundred runs.
const ROUNDS: usize = 4_000_000;
/// No round completed for this long means a wakeup was lost.
const STALL: Duration = Duration::from_secs(10);

struct World {
    rw: RwLock,
    rounds: AtomicUsize,
    stop: AtomicBool,
}

#[test]
fn two_writers_and_readers_never_lose_a_wakeup() {
    // Two LWPs: the race needs the releaser and the arriving writer on two
    // processors at once. All threads are unbound, so every park is a
    // user-level sleep and the LWP goes on to run another thread.
    threads::set_concurrency(2).expect("setconcurrency");
    let w = Arc::new(World {
        rw: RwLock::new(SyncType::DEFAULT),
        rounds: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    });
    let spawn = |body: Box<dyn FnOnce() + Send>| {
        ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(body)
            .expect("spawn")
    };
    let mut ids = Vec::new();
    for _ in 0..WRITERS {
        let w = Arc::clone(&w);
        ids.push(spawn(Box::new(move || {
            for _ in 0..ROUNDS {
                w.rw.enter(RwType::Writer);
                w.rw.exit();
                w.rw.enter(RwType::Reader);
                w.rw.exit();
                w.rounds.fetch_add(1, Ordering::Relaxed);
            }
        })));
    }
    for _ in 0..READERS {
        let w = Arc::clone(&w);
        ids.push(spawn(Box::new(move || {
            while !w.stop.load(Ordering::Relaxed) {
                w.rw.enter(RwType::Reader);
                w.rw.exit();
                // Nothing preempts a reader that never blocks: without
                // this, two of them could keep both LWPs from a runnable
                // writer and trip the watchdog on a correct lock.
                threads::yield_now();
            }
        })));
    }

    let mut seen = 0;
    let mut moved = Instant::now();
    while seen < WRITERS * ROUNDS {
        std::thread::sleep(Duration::from_millis(2));
        let now = w.rounds.load(Ordering::Relaxed);
        if now != seen {
            seen = now;
            moved = Instant::now();
        }
        assert!(
            moved.elapsed() < STALL,
            "watchdog: stalled after {seen} rounds, holders {:?} — a wakeup was lost",
            w.rw.holders()
        );
    }
    w.stop.store(true, Ordering::Relaxed);
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    assert_eq!(w.rw.holders(), (false, 0));
    threads::set_concurrency(0).expect("setconcurrency");
}
