//! FIG2 — the paper's Figure 2 on the real library: one LWP running
//! several threads, "switching from one thread to another ... without the
//! kernel knowing it".
//!
//! Three unbound threads pass a token round-robin through three
//! semaphores on a pool pinned to one LWP, so every turn is one user-level
//! dispatch on that LWP. The run prints the library's dispatch count
//! (`stats().dispatches` delta) beside the same LWP's kernel context
//! switch count (`voluntary_ctxt_switches` + `nonvoluntary_ctxt_switches`
//! from `/proc/self/task/<tid>/status`) over the same window.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sunmt::{CreateFlags, ThreadBuilder};
use sunmt_sync::{Sema, SyncType};

const THREADS: usize = 3;
/// Token passes per thread.
const TURNS: usize = 1_000;

/// One side of the measured window: library dispatches and the LWP's
/// kernel switches (voluntary, nonvoluntary).
#[derive(Clone, Copy, Default)]
struct Snap {
    dispatches: u64,
    voluntary: u64,
    nonvoluntary: u64,
}

fn snap(tid: u32) -> Snap {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status"))
        .expect("read /proc/self/task/<tid>/status");
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {name} in the task status"))
    };
    Snap {
        dispatches: sunmt::stats().dispatches,
        voluntary: field("voluntary_ctxt_switches:"),
        nonvoluntary: field("nonvoluntary_ctxt_switches:"),
    }
}

fn main() {
    sunmt::init();
    // Pin the pool to one LWP, as in the figure; surplus LWPs retire
    // once they go idle.
    sunmt::set_concurrency(1).expect("setconcurrency");
    while sunmt::concurrency() > 1 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let semas: Arc<Vec<Sema>> = Arc::new(
        (0..THREADS)
            .map(|_| Sema::new(0, SyncType::DEFAULT))
            .collect(),
    );
    // The LWP's kernel task id, stamped by the first turn; every later turn
    // counts itself in `elsewhere` if it runs on a different LWP.
    let lwp = Arc::new(AtomicU32::new(0));
    let elsewhere = Arc::new(AtomicUsize::new(0));
    let window = Arc::new(Mutex::new((Snap::default(), Snap::default())));
    let ids: Vec<_> = (0..THREADS)
        .map(|me| {
            let (semas, lwp) = (Arc::clone(&semas), Arc::clone(&lwp));
            let (elsewhere, window) = (Arc::clone(&elsewhere), Arc::clone(&window));
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    for turn in 0..TURNS {
                        semas[me].p();
                        let tid = sunmt_sys::task::gettid();
                        if me == 0 && turn == 0 {
                            lwp.store(tid, Ordering::SeqCst);
                            window.lock().expect("window").0 = snap(tid);
                        } else if tid != lwp.load(Ordering::SeqCst) {
                            elsewhere.fetch_add(1, Ordering::SeqCst);
                        }
                        if me == THREADS - 1 && turn == TURNS - 1 {
                            window.lock().expect("window").1 = snap(tid);
                        }
                        semas[(me + 1) % THREADS].v();
                    }
                })
                .expect("spawn")
        })
        .collect();
    // Hand the token to thread 0.
    semas[0].v();
    for id in ids {
        sunmt::wait(Some(id)).expect("wait");
    }

    let (a, b) = *window.lock().expect("window");
    let dispatches = b.dispatches - a.dispatches;
    let voluntary = b.voluntary - a.voluntary;
    let nonvoluntary = b.nonvoluntary - a.nonvoluntary;
    let kernel = voluntary + nonvoluntary;
    println!("Figure 2: one LWP running {THREADS} threads ({TURNS} token passes each)");
    println!("  library dispatches on the LWP:      {dispatches:>6}");
    println!(
        "  kernel context switches of the LWP: {kernel:>6} \
         ({voluntary} voluntary, {nonvoluntary} nonvoluntary)"
    );
    println!(
        "  turns run on another LWP:           {:>6}",
        elsewhere.load(Ordering::SeqCst)
    );

    assert_eq!(
        elsewhere.load(Ordering::SeqCst),
        0,
        "shape check failed: every turn must run on the one pool LWP"
    );
    let passes = (THREADS * TURNS - 1) as u64;
    assert!(
        dispatches >= passes,
        "shape check failed: each token pass must be a library dispatch \
         ({dispatches} dispatches for {passes} passes)"
    );
    assert!(
        kernel * 10 < dispatches,
        "shape check failed: the kernel must not see the thread switches \
         ({kernel} kernel switches for {dispatches} dispatches)"
    );
    println!(
        "\nshape check: OK (threads switch on one LWP; the kernel switched it \
         {kernel} times for {dispatches} library dispatches)"
    );
    sunmt::set_concurrency(0).expect("setconcurrency");
}
