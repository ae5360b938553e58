//! A deadline belongs to one sleep.
//!
//! A timed user-level sleep registers its deadline with the timer LWP. If
//! the sleep ends early (the thread is woken) and the thread then sleeps
//! on the *same* word again, the old deadline must not end the new sleep:
//! the allocator hands a thread's next wait the same address often, and in
//! a server every such stale deadline was a spurious wake.
//!
//! An early-woken deadline is also dropped from the timer's heaps once it
//! reaches the top of its shard, rather than kept until it expires.
//!
//! The first test reads the process-wide `timeout_wakeups` counter; the
//! second's timed waits never expire, so they leave it alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunos_mt::sync::{Sema, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

const TIMEOUT: Duration = Duration::from_millis(50);

/// Spawns an unbound thread that sleeps in `timed_p(TIMEOUT)` on `s`, is
/// posted early, and then runs `then` against the same semaphore.
fn woken_early_then(s: &Arc<Sema>, then: impl FnOnce(&Sema) + Send + 'static) -> threads::ThreadId {
    let sleeping = Arc::new(AtomicBool::new(false));
    let id = {
        let (s, sleeping) = (Arc::clone(s), Arc::clone(&sleeping));
        ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                sleeping.store(true, Ordering::SeqCst);
                assert!(s.timed_p(TIMEOUT), "the early post was missed");
                then(&s);
            })
            .expect("spawn sleeper")
    };
    while !sleeping.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(10));
    s.v();
    id
}

#[test]
fn a_deadline_ends_only_its_own_sleep() {
    threads::init();

    // A stale deadline finds the thread asleep in `p()` on the same word:
    // it must do nothing.
    let s = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let before = threads::stats().timeout_wakeups;
    let t0 = Instant::now();
    let id = woken_early_then(&s, |s| s.p());
    std::thread::sleep((TIMEOUT * 3).saturating_sub(t0.elapsed()));
    let stale = threads::stats().timeout_wakeups - before;
    s.v();
    threads::wait(Some(id)).expect("join sleeper");
    assert_eq!(stale, 0, "a stale deadline woke a later sleep");

    // A real timeout of the re-slept thread still fires, once.
    let s = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let before = threads::stats().timeout_wakeups;
    let id = woken_early_then(&s, |s| {
        let t0 = Instant::now();
        assert!(!s.timed_p(TIMEOUT), "nobody posted the second sleep");
        let waited = t0.elapsed();
        assert!(
            waited >= TIMEOUT - Duration::from_millis(5),
            "returned after {waited:?}"
        );
    });
    threads::wait(Some(id)).expect("join sleeper");
    assert_eq!(threads::stats().timeout_wakeups - before, 1);
}

/// The `"sched"` stat source's `timeouts_armed`: deadlines the timer heaps
/// hold.
fn timeouts_armed() -> u64 {
    let snap = sunos_mt::stat::snapshot();
    let (_, sched) = snap
        .sources
        .iter()
        .find(|(name, _)| *name == "sched")
        .expect("sunmt::init registers the sched source");
    sched
        .iter()
        .find(|(n, _)| n == "timeouts_armed")
        .expect("sched source has timeouts_armed")
        .1
}

#[test]
fn early_woken_deadlines_leave_the_heaps() {
    const WAITS: u64 = 10_000;
    threads::init();
    let go = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let slept = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sleeper = {
        let (go, slept) = (Arc::clone(&go), Arc::clone(&slept));
        ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                for _ in 0..WAITS {
                    assert!(go.timed_p(Duration::from_secs(10)), "a post was missed");
                    slept.fetch_add(1, Ordering::SeqCst);
                }
            })
            .expect("spawn sleeper")
    };
    for i in 0..WAITS {
        // Post only once the sleeper is asleep, so every wait arms its
        // deadline and every deadline is left behind by an early wake.
        while threads::debug::thread_info(sleeper).map(|t| t.state)
            != Some(threads::ThreadState::Sleeping)
        {
            std::thread::yield_now();
        }
        go.v();
        while slept.load(Ordering::SeqCst) == i {
            std::thread::yield_now();
        }
    }
    threads::wait(Some(sleeper)).expect("join sleeper");
    let armed = timeouts_armed();
    assert!(
        armed < 64,
        "{armed} deadlines still armed after {WAITS} early-woken 10 s waits"
    );
}
