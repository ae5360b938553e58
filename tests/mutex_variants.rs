//! Mutex variant conformance: every combination of the paper's variant
//! bits round-trips `init`/`enter`/`exit`/`destroy` under real contention,
//! on bound and unbound threads, and the `DEBUG` bit catches unlock by a
//! non-owner. (A condition-variable reacquire is a plain `mutex_enter`;
//! broadcast liveness on an `ADAPTIVE` mutex is a case of
//! `tests/monitor_patterns.rs::condvar_barrier_keeps_lockstep`.)
//!
//! Cross-*process* exclusion of the `SHARED` variants is
//! `tests/cross_process.rs::cross_process_mutex_excludes`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use sunos_mt::sync::{api, Mutex, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

fn variants() -> [(SyncType, &'static str); 7] {
    [
        (SyncType::DEFAULT, "default"),
        (SyncType::SPIN, "spin"),
        (SyncType::ADAPTIVE, "adaptive"),
        (SyncType::DEBUG, "debug"),
        (SyncType::ADAPTIVE | SyncType::DEBUG, "adaptive|debug"),
        (SyncType::SHARED, "shared"),
        (SyncType::SPIN | SyncType::SHARED, "spin|shared"),
    ]
}

/// Hammers one mutex from `workers` threads spawned with `flags`,
/// checking mutual exclusion the classic way: a non-atomic read-modify-
/// write under the lock must still sum exactly.
fn hammer(kind: SyncType, flags: CreateFlags, workers: usize, iters: usize) {
    struct World {
        m: Mutex,
        // Plain cell mutated under the lock; AtomicUsize only so the
        // type is Sync — every access uses Relaxed load/store pairs,
        // which the mutex alone must keep race-free.
        counter: AtomicUsize,
    }
    let w = Arc::new(World {
        m: Mutex::new(kind),
        counter: AtomicUsize::new(0),
    });
    let mut ids = Vec::new();
    for _ in 0..workers {
        let w = Arc::clone(&w);
        ids.push(
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    for _ in 0..iters {
                        w.m.enter();
                        let v = w.counter.load(Ordering::Relaxed);
                        w.counter.store(v + 1, Ordering::Relaxed);
                        w.m.exit();
                    }
                })
                .expect("spawn"),
        );
    }
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    assert_eq!(w.counter.load(Ordering::Relaxed), workers * iters);
}

#[test]
fn every_variant_excludes_on_bound_threads() {
    for (kind, name) in variants() {
        hammer(kind, CreateFlags::WAIT | CreateFlags::BIND_LWP, 4, 2_000);
        eprintln!("bound ok: {name}");
    }
}

#[test]
fn every_variant_excludes_on_unbound_threads() {
    // More unbound threads than pool LWPs, so enters genuinely park the
    // user thread and exits resume a different one.
    for (kind, name) in variants() {
        hammer(kind, CreateFlags::WAIT, 8, 1_000);
        eprintln!("unbound ok: {name}");
    }
}

#[test]
fn every_variant_round_trips_destroy_and_reinit() {
    // One storage slot cycling through every variant: destroy+init must
    // fully reset the lock (the holder word included) or the next variant
    // misreads leftover state.
    let m = Mutex::new(SyncType::DEFAULT);
    for (kind, _) in variants() {
        api::mutex_init(&m, kind);
        for _ in 0..3 {
            api::mutex_enter(&m);
            assert!(!api::mutex_tryenter(&m), "tryenter on a held lock");
            api::mutex_exit(&m);
            assert!(api::mutex_tryenter(&m), "tryenter on a free lock");
            api::mutex_exit(&m);
        }
        api::mutex_destroy(&m);
    }
}

#[test]
#[should_panic(expected = "mutex_exit by a non-holder")]
fn debug_catches_exit_by_non_owner() {
    let m: &'static Mutex = Box::leak(Box::new(Mutex::new(SyncType::ADAPTIVE | SyncType::DEBUG)));
    // A helper acquires `m` and parks forever *holding it*; the thread
    // (and the lock) die with the process.
    let entered = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&entered);
    std::thread::spawn(move || {
        m.enter();
        flag.store(true, Ordering::Release);
        loop {
            std::thread::park();
        }
    });
    while !entered.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    m.exit();
}
