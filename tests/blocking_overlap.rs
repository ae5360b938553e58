//! ABL-SIGW's shape as a test, on the real library: a blocking call
//! overlaps with the other threads' blocking calls under M:N and
//! serializes them under N:1. It is alone in this binary, so no other test
//! loads its pool.

use std::time::{Duration, Instant};

use sunos_mt::baselines::coro::N1Scheduler;
use sunos_mt::threads::{self, blocking, CreateFlags, ThreadBuilder};

/// The paper's case for kernel help: a blocking call stalls every thread
/// of an N:1 package, while the two-level library gives the caller's LWP
/// to the call and grows the pool (SIGWAITING) so the other threads run.
#[test]
fn a_blocking_call_stalls_n_to_1_not_m_to_n() {
    const K: u32 = 4;
    const D: Duration = Duration::from_millis(25);

    threads::set_concurrency(1).expect("setconcurrency");
    let start = Instant::now();
    let ids: Vec<_> = (0..K)
        .map(|_| {
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(|| blocking(|| std::thread::sleep(D)))
                .expect("spawn")
        })
        .collect();
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    let mn = start.elapsed();
    threads::set_concurrency(0).expect("setconcurrency");

    let sched = N1Scheduler::new();
    let start = Instant::now();
    for _ in 0..K {
        sched.spawn(|| std::thread::sleep(D));
    }
    assert_eq!(sched.run(), 0);
    let n1 = start.elapsed();

    assert!(
        mn < D * K / 2,
        "M:N sleeps must overlap: {mn:?} for {K} x {D:?}"
    );
    assert!(
        n1 >= D * K,
        "N:1 sleeps must serialize: {n1:?} for {K} x {D:?}"
    );
}
