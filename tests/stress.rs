//! Seeded randomized stress: a chaotic but reproducible mix of every
//! thread operation, checking global invariants at the end. Catches
//! interaction bugs the targeted tests cannot (stop-during-sleep,
//! priority churn during pool shrink, wait racing exit, ...).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use sunmt_bench::rng::SmallRng;

use sunos_mt::sync::{Mutex, Sema, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder, ThreadId};

/// `threads::wait(None)` reaps *any* waitable thread in the process, so the
/// any-wait test would steal the other tests' workers: the tests take turns.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct World {
    counter_lock: Mutex,
    counter: AtomicUsize,
    tokens: Sema,
    exits: AtomicUsize,
}

fn worker(w: Arc<World>, seed: u64) -> impl FnOnce() + Send + 'static {
    move || {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..rng.gen_range(5..40) {
            match rng.gen_range(0u8..5) {
                0 => {
                    w.counter_lock.enter();
                    w.counter.fetch_add(1, Ordering::Relaxed);
                    w.counter_lock.exit();
                }
                1 => threads::yield_now(),
                2 => {
                    w.tokens.v();
                    w.tokens.p();
                }
                3 => {
                    let _ = threads::set_priority(None, rng.gen_range(0..20));
                }
                _ => {
                    sunos_mt::threads::signals::poll();
                }
            }
        }
        w.exits.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn randomized_thread_soup() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SEED: u64 = 0xC0FFEE;
    const WORKERS: usize = 48;
    let mut rng = SmallRng::seed_from_u64(SEED);
    let world = Arc::new(World {
        counter_lock: Mutex::new(SyncType::DEFAULT),
        counter: AtomicUsize::new(0),
        tokens: Sema::new(1, SyncType::DEFAULT),
        exits: AtomicUsize::new(0),
    });

    let mut waitable: Vec<ThreadId> = Vec::new();
    let mut stopped: Vec<ThreadId> = Vec::new();
    for i in 0..WORKERS {
        let mut flags = CreateFlags::WAIT;
        if rng.gen_bool(0.2) {
            flags = flags | CreateFlags::BIND_LWP;
        } else if rng.gen_bool(0.15) {
            flags = flags | CreateFlags::STOP;
        }
        if rng.gen_bool(0.05) {
            flags = flags | CreateFlags::NEW_LWP;
        }
        let id = ThreadBuilder::new()
            .flags(flags)
            .spawn(worker(Arc::clone(&world), SEED ^ (i as u64) << 17))
            .expect("spawn");
        if flags.contains(CreateFlags::STOP) {
            stopped.push(id);
        }
        waitable.push(id);
        // Meanwhile, churn the pool and poke random threads.
        if rng.gen_bool(0.2) {
            threads::set_concurrency(rng.gen_range(1..5)).expect("setconcurrency");
        }
        if rng.gen_bool(0.3) {
            if let Some(&victim) = waitable.get(rng.gen_range(0..waitable.len())) {
                // Stop/continue a random (possibly finished) thread; errors
                // for exited threads are expected and fine.
                if threads::stop(Some(victim)).is_ok() {
                    let _ = threads::cont(victim);
                }
            }
        }
    }
    // Release every deliberately-stopped thread.
    for id in stopped {
        let _ = threads::cont(id);
    }
    // Everything must be reapable.
    for id in waitable {
        threads::wait(Some(id)).expect("every worker must be waitable");
    }
    assert_eq!(
        world.exits.load(Ordering::SeqCst),
        WORKERS,
        "every worker must have run to completion"
    );
    threads::set_concurrency(0).expect("setconcurrency");
}

#[test]
fn randomized_soup_is_reproducible_in_outcome() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Two rounds of a smaller soup: totals must match across rounds (the
    // schedule may differ, the work must not).
    let run = || {
        let world = Arc::new(World {
            counter_lock: Mutex::new(SyncType::DEFAULT),
            counter: AtomicUsize::new(0),
            tokens: Sema::new(1, SyncType::DEFAULT),
            exits: AtomicUsize::new(0),
        });
        let ids: Vec<ThreadId> = (0..16)
            .map(|i| {
                ThreadBuilder::new()
                    .flags(CreateFlags::WAIT)
                    .spawn(worker(Arc::clone(&world), 999 + i))
                    .expect("spawn")
            })
            .collect();
        for id in ids {
            threads::wait(Some(id)).expect("wait");
        }
        world.counter.load(Ordering::SeqCst)
    };
    assert_eq!(run(), run(), "same seeds must do the same locked work");
}

#[test]
fn interleaved_any_and_specific_waits() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let gate = Arc::new(AtomicU32::new(0));
    let mut specific = Vec::new();
    for i in 0..12 {
        let g = Arc::clone(&gate);
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                while g.load(Ordering::SeqCst) == 0 {
                    threads::yield_now();
                }
            })
            .expect("spawn");
        if i % 2 == 0 {
            specific.push(id);
        }
    }
    gate.store(1, Ordering::SeqCst);
    // Half reaped by name, the rest by any-wait; all must resolve.
    for id in specific {
        threads::wait(Some(id)).expect("specific wait");
    }
    for _ in 0..6 {
        threads::wait(None).expect("any wait");
    }
}
