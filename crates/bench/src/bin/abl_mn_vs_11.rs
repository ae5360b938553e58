//! ABL-MN — the paper's "Why have both threads and LWPs?" argument, on
//! the three real packages: a window-system-like workload (many widget
//! threads, each mostly waiting) under M:N (`sunmt`), 1:1
//! (`baselines::cthreads`) and N:1 (`baselines::coro`).
//!
//! Every widget does the same work in all three packages: a fixed compute
//! burst, then a blocking kernel call (a `nanosleep`), twice, then a last
//! burst. Under `sunmt` the call is wrapped in `sunmt::blocking`, the
//! paper's contract for a thread that "remains bound to the same
//! lightweight process for the duration of the kernel call".
//!
//! The paper's claim: M:N wins — "although the window system may be best
//! expressed as a large number of threads, only a few of the threads ever
//! need to be active ... at the same instant". 1:1 gives every widget a
//! kernel thread; N:1 (`liblwp`) stalls the whole process on every
//! blocking call.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunmt::{CreateFlags, ThreadBuilder};
use sunmt_baselines::coro::N1Scheduler;
use sunmt_baselines::cthreads::CThread;
use sunmt_bench::PaperTable;

/// Widgets in the window system.
const WIDGETS: usize = 400;
/// Target length of one compute burst.
const BURST_US: u64 = 30;
/// Requested length of one blocking call.
const WAIT_US: u64 = 200;
/// Runs of the M:N and 1:1 packages; the table reports the median
/// makespan. N:1 runs once: its serialized blocking calls alone put it far
/// behind the other two.
const RUNS: usize = 3;

/// A fixed amount of work: `iters` dependent multiply-adds.
fn compute(iters: u64) -> u64 {
    let mut x = black_box(1u64);
    for i in 0..iters {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    black_box(x)
}

/// Iterations of [`compute`] that take about [`BURST_US`] on this host
/// (the fastest of a few timings, so one preemption does not skew it).
fn calibrate() -> u64 {
    const PROBE: u64 = 1 << 20;
    let best = (0..5)
        .map(|_| {
            let t = Instant::now();
            compute(PROBE);
            t.elapsed()
        })
        .min()
        .expect("five timings");
    (PROBE as f64 * BURST_US as f64 / (best.as_secs_f64() * 1e6)).max(1.0) as u64
}

/// One widget: compute, block, compute, block, compute.
fn widget(iters: u64, block: impl Fn()) {
    for _ in 0..2 {
        compute(iters);
        block();
    }
    compute(iters);
}

fn wait_call() {
    std::thread::sleep(Duration::from_micros(WAIT_US));
}

/// M:N: unbound threads on the library's pool, which grows on
/// SIGWAITING when the last available LWP blocks. Returns the makespan and
/// the LWPs the pool added during the run.
fn run_mn(iters: u64) -> (Duration, usize) {
    let grows = sunmt::stats().pool_grows;
    let done = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let ids: Vec<_> = (0..WIDGETS)
        .map(|_| {
            let done = Arc::clone(&done);
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    widget(iters, || sunmt::blocking(wait_call));
                    done.fetch_add(1, Ordering::SeqCst);
                })
                .expect("spawn")
        })
        .collect();
    for id in ids {
        sunmt::wait(Some(id)).expect("wait");
    }
    let elapsed = start.elapsed();
    assert_eq!(done.load(Ordering::SeqCst), WIDGETS);
    (elapsed, (sunmt::stats().pool_grows - grows) as usize)
}

/// 1:1: one kernel thread per widget.
fn run_11(iters: u64) -> Duration {
    let done = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let threads: Vec<_> = (0..WIDGETS)
        .map(|_| {
            let done = Arc::clone(&done);
            CThread::spawn(move || {
                widget(iters, wait_call);
                done.fetch_add(1, Ordering::SeqCst);
            })
            .expect("spawn")
        })
        .collect();
    for t in threads {
        t.join();
    }
    let elapsed = start.elapsed();
    assert_eq!(done.load(Ordering::SeqCst), WIDGETS);
    elapsed
}

/// N:1: every widget a coroutine on the calling host thread.
fn run_n1(iters: u64) -> Duration {
    let done = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let sched = N1Scheduler::new();
    for _ in 0..WIDGETS {
        let done = Arc::clone(&done);
        sched.spawn(move || {
            widget(iters, wait_call);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    assert_eq!(sched.run(), 0, "no coroutine may stay blocked");
    let elapsed = start.elapsed();
    assert_eq!(done.load(Ordering::SeqCst), WIDGETS);
    elapsed
}

fn median(mut v: Vec<Duration>) -> f64 {
    v.sort();
    v[v.len() / 2].as_secs_f64() * 1e6
}

fn main() {
    sunmt::init();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let iters = calibrate();
    let pool = sunmt::concurrency();
    let mut mn_grown = 0;
    let mn = median(
        (0..RUNS)
            .map(|_| {
                let (d, grown) = run_mn(iters);
                mn_grown = mn_grown.max(grown);
                d
            })
            .collect(),
    );
    let mn_lwps = pool + mn_grown;
    let one = median((0..RUNS).map(|_| run_11(iters)).collect());
    let n1 = median(vec![run_n1(iters)]);

    let mut t = PaperTable::new(format!(
        "Ablation: window-system workload, {WIDGETS} widget threads x (3 x {BURST_US} us compute, \
         2 x {WAIT_US} us blocking call) on {cpus} CPU(s) (makespan incl. creation, us)"
    ));
    t.row(format!("M:N, <= {mn_lwps} LWPs (SunOS MT)"), mn)
        .row(format!("1:1, {WIDGETS} LWPs (C Threads wired)"), one)
        .row("N:1, 1 LWP (SunOS 4.0 liblwp)", n1)
        .note(format!(
            "M:N LWPs: {pool} in the pool before the first run, at most {mn_grown} created \
             in one run (all but a first one by SIGWAITING growth)"
        ))
        .note(format!(
            "M:N and 1:1 rows: median of {RUNS} runs; N:1: one run"
        ))
        .note(format!(
            "N:1 floor: {WIDGETS} x 2 blocking calls serialize, >= {} us",
            WIDGETS as u64 * 2 * WAIT_US
        ));
    t.print();

    assert!(
        mn_lwps < WIDGETS,
        "shape check failed: M:N must multiplex the widgets on fewer LWPs than 1:1 \
         ({mn_lwps} vs {WIDGETS})"
    );
    assert!(
        mn < one,
        "shape check failed: M:N must beat one kernel thread per widget \
         ({mn:.0} vs {one:.0} us)"
    );
    assert!(
        mn < n1,
        "shape check failed: M:N must beat whole-process-blocking N:1 \
         ({mn:.0} vs {n1:.0} us)"
    );
    println!(
        "\nshape check: OK (M:N uses <= {mn_lwps} LWPs against 1:1's {WIDGETS}; \
         M:N beats 1:1 and N:1 in makespan)"
    );
}
