//! ABL-BOUND — the paper's array-computation argument: "A parallel array
//! computation divides the rows of its arrays among different threads. If
//! there is one LWP per processor, but multiple threads per LWP, each
//! processor would spend overhead switching between threads. It would be
//! better to ... divide the rows among a smaller number of threads."
//!
//! Sweep: row-partitioned array reduction with (a) bound threads, one per
//! LWP; (b) unbound threads matching the LWP count; (c) 8x oversubscribed
//! unbound threads that yield between row blocks (the switching overhead
//! the paper warns about).
//!
//! ABL-SMP — "the architecture must support both multiprocessor and
//! uniprocessor implementations": (d) the matched partition of (b) again
//! on a pool of one LWP, against (b)'s one LWP per CPU.
//!
//! Every worker starts behind a gate, and each row times only the
//! computation: from opening the gate to the last worker's finish, so
//! creating threads (and the bound threads' LWPs) stays out of the window.
//! The workers spin at the gate for a few milliseconds before it opens, so
//! the host kernel has spread their LWPs over its CPUs: a new LWP starts
//! on its creator's CPU, and on a 2-vCPU VM the second worker otherwise
//! often started ~0.7 ms late, which was longer than the work itself.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunmt::{CreateFlags, ThreadBuilder};
use sunmt_bench::{row_chunk, PaperTable};
use sunmt_sync::{Sema, SyncType};

/// How long the workers spin at the gate before it opens.
const SETTLE: Duration = Duration::from_millis(5);
const ROWS: usize = 512;
const COLS: usize = 2_048;

/// The array's total in closed form: element `i` is `i % 7 + 1`, so every
/// full cycle of seven sums to 28.
const TOTAL: u64 = {
    let n = (ROWS * COLS) as u64;
    let r = n % 7;
    28 * (n / 7) + r * (r + 1) / 2
};

fn run(threads: usize, flags: CreateFlags, yield_per_block: bool) -> f64 {
    let data: Arc<Vec<u64>> = Arc::new((0..ROWS * COLS).map(|i| (i as u64) % 7 + 1).collect());
    let sum = Arc::new(AtomicU64::new(0));
    let ready = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let gate = Arc::new(AtomicBool::new(false));
    let last_finish_ns = Arc::new(AtomicU64::new(0));
    let ids: Vec<_> = (0..threads)
        .map(|t| {
            let (data, sum) = (Arc::clone(&data), Arc::clone(&sum));
            let (ready, gate) = (Arc::clone(&ready), Arc::clone(&gate));
            let last_finish_ns = Arc::clone(&last_finish_ns);
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    ready.v();
                    while !gate.load(Ordering::Acquire) {
                        sunmt::yield_now();
                    }
                    let mut local = 0u64;
                    for r in row_chunk(ROWS, threads, t) {
                        for c in 0..COLS {
                            local = local.wrapping_add(data[r * COLS + c]);
                        }
                        if yield_per_block {
                            sunmt::yield_now();
                        }
                    }
                    sum.fetch_add(local, Ordering::SeqCst);
                    let now = sunmt_sys::time::monotonic_now().as_nanos() as u64;
                    last_finish_ns.fetch_max(now, Ordering::SeqCst);
                })
                .expect("spawn")
        })
        .collect();
    for _ in 0..threads {
        ready.p();
    }
    std::thread::sleep(SETTLE);
    let start = sunmt_sys::time::monotonic_now();
    gate.store(true, Ordering::Release);
    for id in ids {
        sunmt::wait(Some(id)).expect("wait");
    }
    let end = Duration::from_nanos(last_finish_ns.load(Ordering::SeqCst));
    let total = sum.load(Ordering::SeqCst);
    assert_eq!(
        total, TOTAL,
        "{threads} threads summed {total}, the array holds {TOTAL}"
    );
    (end - start).as_secs_f64() * 1e6
}

/// Sets the pool size and waits until surplus LWPs have retired.
fn pool_of(n: usize) {
    sunmt::set_concurrency(n).expect("setconcurrency");
    while sunmt::concurrency() > n {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn main() {
    sunmt::init();
    // "One LWP per processor" on this host.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    pool_of(cpus);

    // Warm-up pass: touch the allocator and fault pages in, so the first
    // measured configuration is not charged the cold-start cost. Each
    // configuration then takes best-of-3 to screen out external load.
    let _ = run(cpus, CreateFlags::WAIT, false);
    let best = |threads: usize, flags: CreateFlags, yielding: bool| -> f64 {
        (0..3)
            .map(|_| run(threads, flags, yielding))
            .min_by(f64::total_cmp)
            .expect("three runs")
    };
    let bound_us = best(cpus, CreateFlags::WAIT | CreateFlags::BIND_LWP, false);
    let matched_us = best(cpus, CreateFlags::WAIT, false);
    let over = (cpus * 8).min(ROWS);
    let oversub_us = best(over, CreateFlags::WAIT, true);
    pool_of(1);
    let one_lwp_us = best(cpus, CreateFlags::WAIT, false);

    let mut t = PaperTable::new(format!(
        "Ablation: array computation, {ROWS}x{COLS} reduction on {cpus} CPU(s) \
         (gate to last finish, best of 3)"
    ));
    t.row(format!("{cpus} bound threads (1 per LWP)"), bound_us)
        .row(
            format!("{cpus} unbound threads, {cpus} pool LWP(s)"),
            matched_us,
        )
        .row(format!("{over} unbound threads, yielding"), oversub_us)
        .row(format!("{cpus} unbound threads, 1 pool LWP"), one_lwp_us)
        .note("the paper's advice: match thread count to LWPs for data parallelism".to_string())
        .note(format!(
            "ABL-SMP: {cpus} pool LWP(s) run the matched partition {:.2}x as fast as 1; \
             a {cpus}-CPU host bounds that speedup at {cpus}x",
            one_lwp_us / matched_us
        ));
    t.print();

    assert!(
        oversub_us > bound_us * 0.8,
        "shape check failed: oversubscription + switching must not be materially faster \
         (oversub {oversub_us:.0} vs bound {bound_us:.0})"
    );
    // Both the bound and the matched row run one LWP per CPU; a burst of
    // host load can slow one of them, rarely both.
    let per_cpu_us = bound_us.min(matched_us);
    if cpus > 1 {
        assert!(
            one_lwp_us > per_cpu_us,
            "shape check failed: one LWP per CPU must beat one LWP \
             ({per_cpu_us:.0} vs {one_lwp_us:.0})"
        );
    }
    println!(
        "\nshape check: OK (thread-per-LWP partitioning is the efficient configuration; \
         one LWP per CPU beats one LWP)"
    );
    sunmt::set_concurrency(0).expect("setconcurrency");
}
