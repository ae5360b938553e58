//! The preemption tick end to end. Under `SUNMT_PREEMPT=timer` a woken
//! higher-priority thread must get a processor away from CPU hogs that
//! never block, and the tick must come from the library's one timer LWP
//! (`sunmt-timer`), not from a clock LWP of its own.
//!
//! The mode is read once per process, so this binary holds a single test
//! and sets the variable before its first library call.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunmt::sync::{Sema, SyncType};
use sunmt::{CreateFlags, ThreadBuilder};

const LWPS: usize = 2;
const WAKES: usize = 20;

/// The names (`comm`) of every kernel task in this process.
fn task_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
        .map(|s| s.trim_end().to_string())
        .collect()
}

#[test]
fn timer_tick_preempts_hogs_from_the_one_timer_lwp() {
    std::env::set_var("SUNMT_PREEMPT", "timer");
    sunmt::init();
    sunmt::set_concurrency(LWPS).expect("setconcurrency");
    // Children inherit this priority, so the probe is born outranking the
    // hogs; each hog lowers its own priority once it runs.
    let old_pri = sunmt::set_priority(None, 20).expect("set_priority");
    let before = sunmt::stats();

    let stop = Arc::new(AtomicBool::new(false));
    let hogs: Vec<_> = (0..LWPS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    sunmt::set_priority(None, 5).expect("hog priority");
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::black_box(0u64);
                        sunmt::api::thread_preempt_point();
                    }
                })
                .expect("spawn hog")
        })
        .collect();

    let go = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let done = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let probe = {
        let (go, done) = (Arc::clone(&go), Arc::clone(&done));
        ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                for _ in 0..WAKES {
                    go.p();
                    done.v();
                }
            })
            .expect("spawn probe")
    };

    for i in 0..WAKES {
        // Let the probe park and the hogs take both LWPs back, so every
        // wake needs a preemption to run.
        std::thread::sleep(Duration::from_millis(3));
        go.v();
        assert!(
            done.timed_p(Duration::from_secs(10)),
            "wake {i}: the probe never ran past the hogs"
        );
    }
    let names = task_names();
    sunmt::wait(Some(probe)).expect("wait probe");
    stop.store(true, Ordering::Relaxed);
    for h in hogs {
        sunmt::wait(Some(h)).expect("wait hog");
    }
    sunmt::set_priority(None, old_pri).expect("restore priority");

    let preempts = sunmt::stats().preempts - before.preempts;
    assert!(preempts > 0, "no hog was switched out at a tick");
    let timers = names.iter().filter(|n| *n == "sunmt-timer").count();
    assert_eq!(timers, 1, "expected one timer LWP, tasks: {names:?}");
    assert!(
        !names.iter().any(|n| n == "sunmt-tick"),
        "a second clock LWP is running, tasks: {names:?}"
    );
}
