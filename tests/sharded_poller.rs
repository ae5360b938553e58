//! Sharded-poller races at the public API.
//!
//! Two hazards the per-LWP poller shards introduce are pinned here:
//!
//! 1. **Close-while-parked.** A waiter parks on the shard its fd number
//!    maps to; `sunmt_io::close` must find it there and error it out
//!    with `EBADF` — no readiness event ever arrives for a closed fd, so
//!    a missed waiter means a thread asleep forever.
//!
//! 2. **Timer liveness under cross-shard churn.** `cv_timedwait`
//!    deadlines are serviced independently of the poller; churning
//!    waits on several shards at once (parking, waking) must not starve
//!    or stretch them — and must make no `epoll_ctl` call once each fd
//!    is registered.
//!
//! Everything lives in ONE `#[test]`: the shard count is process-global
//! (the pool size at first poller use), and pool accounting is
//! process-wide.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunos_mt::io as sunmt_io;
use sunos_mt::sync::{Condvar, Mutex, SyncType};
use sunos_mt::sys::errno::Errno;
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

const CLOSED_READERS: usize = 8;
const CHURN_PAIRS: usize = 4;
const TIMED_ROUNDS: usize = 5;
const TIMEOUT: Duration = Duration::from_millis(40);

#[test]
fn close_errors_parked_waiters_and_timedwait_survives_shard_churn() {
    // Four pool LWPs before the poller's first use give it four shards,
    // so waiters spread across several epoll sets and close() has to find
    // the right one.
    threads::init();
    threads::set_concurrency(4).expect("pin the pool at 4 LWPs");

    // --- Phase 1: close fds out from under parked waiters. -------------
    let pipes: Vec<(i32, i32)> = (0..CLOSED_READERS)
        .map(|_| sunmt_io::pipe().expect("pipe"))
        .collect();
    let errored = Arc::new(AtomicUsize::new(0));
    let ids: Vec<_> = pipes
        .iter()
        .map(|&(r, _)| {
            let errored = Arc::clone(&errored);
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    let mut buf = [0u8; 8];
                    // The read end is closed while we are parked: the
                    // poller must hand us EBADF, not leave us asleep.
                    match sunmt_io::read(r, &mut buf) {
                        Err(Errno::EBADF) => {
                            errored.fetch_add(1, Ordering::SeqCst);
                        }
                        other => panic!("expected EBADF after close, got {other:?}"),
                    }
                })
                .expect("spawn reader")
        })
        .collect();

    // Wait until every reader is parked in a shard's fd table.
    let deadline = Instant::now() + Duration::from_secs(10);
    while sunmt_io::stats().pending_waiters < CLOSED_READERS {
        assert!(
            Instant::now() < deadline,
            "readers never parked: {:?}",
            sunmt_io::stats()
        );
        threads::yield_now();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        sunmt_io::stats().shards,
        4,
        "the shard count must follow the pool's LWP count"
    );

    for &(r, w) in &pipes {
        sunmt_io::close(r).expect("close read end");
        sunmt_io::close(w).expect("close write end");
    }
    for id in ids {
        threads::wait(Some(id)).expect("join reader");
    }
    assert_eq!(errored.load(Ordering::SeqCst), CLOSED_READERS);

    // --- Phase 2: cv_timedwait deadlines under cross-shard churn. ------
    // Blocking echo ping-pong between thread pairs: each side parks in
    // `read` until its peer responds, so every round trip is two poller
    // waits on the shards the pair's fd numbers map to, and the parked
    // threads keep the pool LWPs free for the timed waiter.
    let stop = Arc::new(AtomicBool::new(false));
    let mut churners = Vec::new();
    for i in 0..CHURN_PAIRS {
        let (a, b) = sunmt_io::socketpair_stream().expect("socketpair");
        churners.push(
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    // Echo side: read until the client hangs up.
                    let mut buf = [0u8; 1];
                    loop {
                        match sunmt_io::read(b, &mut buf) {
                            Ok(0) => break,
                            Ok(n) => sunmt_io::write_all(b, &buf[..n]).expect("echo write"),
                            Err(e) => panic!("echo read: {e:?}"),
                        }
                    }
                    sunmt_io::close(b).ok();
                })
                .expect("spawn echo"),
        );
        let stop = Arc::clone(&stop);
        churners.push(
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    // Client side: blocking round trips until told to stop.
                    let mut buf = [0u8; 1];
                    while !stop.load(Ordering::SeqCst) {
                        sunmt_io::write_all(a, &[i as u8]).expect("churn write");
                        let n = sunmt_io::read(a, &mut buf).expect("churn read");
                        assert_eq!(n, 1);
                        assert_eq!(buf[0], i as u8);
                    }
                    sunmt_io::close(a).ok();
                })
                .expect("spawn client"),
        );
    }

    struct Mon {
        m: Mutex,
        cv: Condvar,
    }
    let mon = Arc::new(Mon {
        m: Mutex::new(SyncType::DEFAULT),
        cv: Condvar::new(SyncType::DEFAULT),
    });
    let timed = {
        let mon = Arc::clone(&mon);
        ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                for round in 0..TIMED_ROUNDS {
                    mon.m.enter();
                    let start = Instant::now();
                    // Nobody ever signals: every round must time out, and
                    // the deadline must hold (not stretch) while the
                    // poller shards churn.
                    let signaled = mon.cv.timed_wait(&mon.m, TIMEOUT);
                    let elapsed = start.elapsed();
                    mon.m.exit();
                    assert!(!signaled, "round {round}: phantom signal");
                    assert!(
                        elapsed >= TIMEOUT - Duration::from_millis(5),
                        "round {round}: woke {elapsed:?} before the {TIMEOUT:?} deadline"
                    );
                    assert!(
                        elapsed < Duration::from_secs(5),
                        "round {round}: deadline stretched to {elapsed:?} under io churn"
                    );
                }
            })
            .expect("spawn timed waiter")
    };
    threads::wait(Some(timed)).expect("join timed waiter");
    stop.store(true, Ordering::SeqCst);
    for id in churners {
        threads::wait(Some(id)).expect("join churner");
    }

    // One registration per descriptor: an ADD (at most one MOD) per fd
    // waited on, a DEL per close, and nothing per wait.
    let s = sunmt_io::stats();
    let waited_fds = (CLOSED_READERS + 2 * CHURN_PAIRS) as u64;
    let closes = (2 * CLOSED_READERS + 2 * CHURN_PAIRS) as u64;
    assert!(
        s.ctl_syscalls <= 2 * waited_fds + closes,
        "epoll_ctl calls must not grow with waits: {s:?}"
    );
    assert!(
        s.registrations >= 10 * s.ctl_syscalls,
        "the churn should wait far more often than it arms: {s:?}"
    );
}
