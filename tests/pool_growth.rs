//! The pool grows by the paper's three rules — `thread_setconcurrency`,
//! `THREAD_NEW_LWP` and `SIGWAITING` — and a `SIGWAITING` growth is
//! temporary: once the pool idles it falls back to its target. Each
//! `SIGWAITING` growth is one `sigwaiting` trace event.
//!
//! Everything lives in ONE `#[test]`: each step reads the process-wide
//! pool size, which a concurrent sibling test in the same binary would
//! move (a `set_concurrency` elsewhere retires LWPs under the reader).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunos_mt::threads::{self, blocking, CreateFlags, ThreadBuilder};
use sunos_mt::trace::{self, Tag};

/// Polls until the pool holds exactly `n` LWPs; surplus LWPs retire only
/// as they find nothing to run, so the fall is not immediate.
fn pool_settles_to(n: usize, why: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads::concurrency() != n {
        assert!(
            Instant::now() < deadline,
            "{why}: pool stayed at {} LWPs, expected {n}",
            threads::concurrency()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn spawn_waitable(f: impl FnOnce() + Send + 'static) -> threads::ThreadId {
    ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(f)
        .expect("spawn")
}

#[test]
fn pool_grows_by_each_rule_and_sigwaiting_growth_is_temporary() {
    threads::init();

    // thread_setconcurrency grows the pool at once; 0 returns to automatic
    // mode, whose target is one LWP.
    threads::set_concurrency(3).expect("setconcurrency");
    assert!(threads::concurrency() >= 3);
    threads::set_concurrency(0).expect("setconcurrency");
    pool_settles_to(1, "automatic mode after set_concurrency(3)");

    // THREAD_NEW_LWP adds an LWP that stays.
    let id = ThreadBuilder::new()
        .flags(CreateFlags::WAIT | CreateFlags::NEW_LWP)
        .spawn(|| {})
        .expect("spawn");
    threads::wait(Some(id)).expect("wait");
    assert_eq!(threads::concurrency(), 2, "NEW_LWP must add one LWP");
    threads::set_concurrency(0).expect("setconcurrency");
    pool_settles_to(1, "automatic mode after NEW_LWP");

    // SIGWAITING: a thread blocked on the only LWP must not starve a
    // queued one (deadlock avoidance).
    let release = Arc::new(AtomicU32::new(0));
    let ran = Arc::new(AtomicU32::new(0));
    let (rel, r) = (Arc::clone(&release), Arc::clone(&ran));
    let blocker = spawn_waitable(move || {
        blocking(|| {
            while rel.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
    });
    let runner = spawn_waitable(move || r.store(1, Ordering::SeqCst));
    let deadline = Instant::now() + Duration::from_secs(10);
    while ran.load(Ordering::SeqCst) == 0 {
        assert!(
            Instant::now() < deadline,
            "runnable thread starved: SIGWAITING growth failed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    release.store(1, Ordering::SeqCst);
    threads::wait(Some(blocker)).expect("wait");
    threads::wait(Some(runner)).expect("wait");
    pool_settles_to(1, "idle pool after one blocker");

    // A burst of blocking calls grows the pool, one traced SIGWAITING per
    // grown LWP, and the growth is temporary: the grown LWPs retire once
    // the pool idles.
    trace::enable();
    let grows = threads::stats().pool_grows;
    let ids: Vec<_> = (0..8)
        .map(|_| spawn_waitable(|| blocking(|| std::thread::sleep(Duration::from_millis(20)))))
        .collect();
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    let grown = threads::stats().pool_grows - grows;
    trace::disable();
    assert!(
        grown > 0,
        "8 blocking threads on one LWP must grow the pool"
    );
    assert_eq!(trace::counters().get(Tag::SigwaitingPost), grown);
    assert!(trace::export_chrome(&trace::drain()).contains("\"sigwaiting\""));
    pool_settles_to(1, "idle pool after a blocking burst");
}
