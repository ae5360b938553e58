//! A deadline belongs to one sleep.
//!
//! A timed user-level sleep registers its deadline with the timer LWP. If
//! the sleep ends early (the thread is woken) and the thread then sleeps
//! on the *same* word again, the old deadline must not end the new sleep:
//! the allocator hands a thread's next wait the same address often, and in
//! a server every such stale deadline was a spurious wake.
//!
//! One `#[test]`: it reads the process-wide `timeout_wakeups` counter,
//! which a sibling test's timed waits would move.

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
