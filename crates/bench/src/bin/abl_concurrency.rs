//! ABL-CONC — `thread_setconcurrency()` sweep: throughput of a mixed
//! compute/blocking workload as a function of the requested degree of real
//! concurrency.
//!
//! The paper: "The number of LWPs automatically created by the library
//! (n = 0) is sufficient to avoid deadlock, but it may not be enough to
//! avoid poor performance ... The programmer may tune the number of LWPs."
//! Each thread alternates computing with a blocking call; with too few
//! LWPs the blocking calls serialize the compute, with enough they overlap.
//!
//! The concurrency-1 row is the paper's SIGWAITING case: one LWP, and the
//! library grows the pool whenever its last available LWP blocks. The
//! first row runs the same threads on the N:1 `coro` package, which has
//! no kernel help: every blocking call stalls the whole process.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunmt::{CreateFlags, ThreadBuilder};
use sunmt_baselines::coro::{self, N1Scheduler};
use sunmt_bench::PaperTable;

const THREADS: usize = 8;
const ROUNDS: usize = 6;
const BLOCK_MS: u64 = 10;

/// The same threads as coroutines on one host thread: returns the makespan.
fn run_n1() -> f64 {
    let done = Arc::new(AtomicUsize::new(0));
    let start = sunmt_sys::time::monotonic_now();
    let sched = N1Scheduler::new();
    for _ in 0..THREADS {
        let done = Arc::clone(&done);
        sched.spawn(move || {
            for _ in 0..ROUNDS {
                std::thread::sleep(Duration::from_millis(BLOCK_MS));
                coro::yield_now();
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    assert_eq!(sched.run(), 0, "no coroutine may stay blocked");
    assert_eq!(done.load(Ordering::SeqCst), THREADS);
    (sunmt_sys::time::monotonic_now() - start).as_secs_f64() * 1e3
}

/// Returns the makespan and the LWPs the pool added during the run.
fn run(concurrency: usize) -> (f64, u64) {
    sunmt::set_concurrency(concurrency).expect("setconcurrency");
    let grows = sunmt::stats().pool_grows;
    let done = Arc::new(AtomicUsize::new(0));
    let start = sunmt_sys::time::monotonic_now();
    let ids: Vec<_> = (0..THREADS)
        .map(|_| {
            let done = Arc::clone(&done);
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    for _ in 0..ROUNDS {
                        // A blocking kernel call holds this thread's LWP.
                        sunmt::blocking(|| std::thread::sleep(Duration::from_millis(BLOCK_MS)));
                        sunmt::yield_now();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                })
                .expect("spawn")
        })
        .collect();
    for id in ids {
        sunmt::wait(Some(id)).expect("wait");
    }
    assert_eq!(done.load(Ordering::SeqCst), THREADS);
    let ms = (sunmt_sys::time::monotonic_now() - start).as_secs_f64() * 1e3;
    (ms, sunmt::stats().pool_grows - grows)
}

fn main() {
    sunmt::init();
    let mut t = PaperTable::new(format!(
        "Ablation: thread_setconcurrency sweep — {THREADS} threads x {ROUNDS} blocking calls of {BLOCK_MS} ms (makespan, ms)"
    ));
    let serial_ms = (THREADS * ROUNDS) as f64 * BLOCK_MS as f64;
    t.row("serial reference (no overlap)", serial_ms);
    let n1_ms = run_n1();
    t.row("no kernel help (N:1 coro, liblwp)", n1_ms);
    let mut results = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let (ms, grown) = run(n);
        results.push((n, ms));
        t.row(format!("concurrency {n}, {grown} LWP(s) grown"), ms);
    }
    t.note(
        "every setting completes in ~overlap time because SIGWAITING growth \
         adds LWPs whenever the last available one blocks — the paper's \
         'sufficient to avoid deadlock' automatic mode; the explicit knob \
         merely pre-sizes the pool"
            .to_string(),
    );
    t.print();
    assert!(
        n1_ms >= serial_ms,
        "shape check failed: N:1 must serialize every blocking call \
         ({n1_ms:.1} ms vs serial {serial_ms:.1} ms)"
    );
    for (n, ms) in &results {
        assert!(
            *ms < serial_ms * 0.5,
            "shape check failed: concurrency {n} did not overlap blocking \
             calls ({ms:.1} ms vs serial {serial_ms:.1} ms)"
        );
    }
    println!(
        "\nshape check: OK (N:1 serializes the blocking calls; they overlap at every \
         concurrency setting; growth covers low settings)"
    );
    sunmt::set_concurrency(0).expect("setconcurrency");
}
