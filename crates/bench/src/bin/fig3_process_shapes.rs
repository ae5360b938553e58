//! FIG3 — constructs the paper's Figure 3: the five multi-thread process
//! shapes in the real library, verifying that bound and unbound threads
//! still synchronize "in the usual way" and that proc 5's bound thread can
//! bind its LWP to one CPU.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sunmt::{CreateFlags, ThreadBuilder};
use sunmt_sync::{Sema, SyncType};
use sunmt_sys::task::{sched_getaffinity, sched_setaffinity, sched_yield, CpuSet};

/// Samples of the CPU the CPU-bound LWP runs on.
const CPU_SAMPLES: usize = 1_000;

fn main() {
    sunmt::init();
    println!("Figure 3: multi-thread architecture examples");

    // Process 1: "the traditional UNIX process with a single thread
    // attached to a single LWP" — the adopted initial thread.
    let me = sunmt::get_id();
    println!("proc 1: single thread on single LWP (initial thread {me:?}): OK");

    // Process 2: threads multiplexed on a single LWP ("as in typical
    // coroutine packages, such as SunOS 4.0 liblwp").
    sunmt::set_concurrency(1).expect("setconcurrency");
    run_batch("proc 2: N threads on 1 LWP", 8, CreateFlags::WAIT);

    // Process 3: several threads multiplexed on a lesser number of LWPs.
    sunmt::set_concurrency(2).expect("setconcurrency");
    run_batch("proc 3: N threads on 2 LWPs", 8, CreateFlags::WAIT);

    // Process 4: threads permanently bound to LWPs.
    run_batch(
        "proc 4: threads bound to LWPs",
        4,
        CreateFlags::WAIT | CreateFlags::BIND_LWP,
    );

    // Process 5: the mixture — multiplexed group + bound threads, with the
    // bound and unbound threads synchronizing with each other, and one
    // bound thread's LWP "bound to a CPU".
    let gate = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let hits = Arc::new(AtomicUsize::new(0));
    let bound_cpu = Arc::new(AtomicUsize::new(usize::MAX));
    let mut ids = Vec::new();
    for i in 0..6 {
        let flags = if i < 2 {
            CreateFlags::WAIT | CreateFlags::BIND_LWP
        } else {
            CreateFlags::WAIT
        };
        let (g, h, c) = (Arc::clone(&gate), Arc::clone(&hits), Arc::clone(&bound_cpu));
        ids.push(
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    if i == 0 {
                        c.store(bind_own_lwp_to_last_cpu(), Ordering::SeqCst);
                    }
                    g.p(); // Bound and unbound block on the same variable.
                    h.fetch_add(1, Ordering::SeqCst);
                })
                .expect("spawn"),
        );
    }
    for _ in 0..6 {
        gate.v();
    }
    for id in ids {
        sunmt::wait(Some(id)).expect("wait");
    }
    assert_eq!(hits.load(Ordering::SeqCst), 6);
    println!("proc 5: 2 bound + 4 unbound synchronized on one semaphore: OK");
    println!(
        "proc 5: bound thread's LWP bound to CPU {}, ran there in all {CPU_SAMPLES} samples: OK",
        bound_cpu.load(Ordering::SeqCst)
    );

    // Restore automatic concurrency for any following benches.
    sunmt::set_concurrency(0).expect("setconcurrency");
    println!("all five process shapes constructed: OK");
}

fn run_batch(label: &str, n: usize, flags: CreateFlags) {
    let hits = Arc::new(AtomicUsize::new(0));
    let ids: Vec<_> = (0..n)
        .map(|_| {
            let h = Arc::clone(&hits);
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    sunmt::yield_now();
                    h.fetch_add(1, Ordering::SeqCst);
                })
                .expect("spawn")
        })
        .collect();
    for id in ids {
        sunmt::wait(Some(id)).expect("wait");
    }
    assert_eq!(hits.load(Ordering::SeqCst), n);
    println!("{label}: OK (pool now {} LWPs)", sunmt::concurrency());
}

/// Binds the calling bound thread's LWP to the last CPU it may run on,
/// then checks over [`CPU_SAMPLES`] kernel yields that the kernel runs it
/// nowhere else. Returns the CPU.
fn bind_own_lwp_to_last_cpu() -> usize {
    let cpu = sched_getaffinity()
        .expect("sched_getaffinity")
        .last()
        .expect("some CPU is allowed");
    sched_setaffinity(&CpuSet::single(cpu)).expect("sched_setaffinity");
    for n in 0..CPU_SAMPLES {
        sched_yield();
        let on = current_cpu();
        assert_eq!(
            on, cpu,
            "sample {n}: the LWP bound to CPU {cpu} ran on CPU {on}"
        );
    }
    cpu
}

/// The CPU the calling LWP last ran on: field 39 (`processor`) of
/// `/proc/thread-self/stat`. Field 2 may hold spaces, so fields are
/// counted from the `)` that closes it.
fn current_cpu() -> usize {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("read stat");
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    rest.split_whitespace()
        .nth(39 - 3)
        .expect("processor field")
        .parse()
        .expect("numeric processor field")
}
