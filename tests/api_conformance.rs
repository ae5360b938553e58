//! FIG4 conformance: every function in the paper's Figure 4 exists under
//! its original name and behaves as specified. This test is the index the
//! DESIGN.md experiment table points at for Figure 4.
//!
//! `thread_wait(NULL)` is in `tests/any_wait.rs`: it reaps any waitable
//! thread in the process, so it cannot share one with the tests here.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunos_mt::sync::{Condvar, Mutex, RwLock, RwType, Sema, SyncType};
use sunos_mt::threads::api::*;
use sunos_mt::threads::signals::{self, MaskHow};
use sunos_mt::threads::{CreateFlags, ThreadId};

#[test]
fn thread_create_and_thread_wait() {
    let ran = Arc::new(AtomicU32::new(0));
    let r = Arc::clone(&ran);
    let id = thread_create(CreateFlags::WAIT, move || {
        r.store(1, Ordering::SeqCst);
    })
    .expect("thread_create");
    assert_eq!(thread_wait(Some(id)).expect("thread_wait"), id);
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

#[test]
fn thread_create_sized_stack() {
    let id = thread_create_sized(256 * 1024, CreateFlags::WAIT, || {
        // Use a chunk of the larger stack.
        let big = [0u8; 64 * 1024];
        std::hint::black_box(&big);
    })
    .expect("thread_create_sized");
    thread_wait(Some(id)).expect("thread_wait");
}

#[test]
fn thread_create_on_programmer_stack() {
    // "If stack_addr is not NULL, stack_size bytes of memory starting at
    // stack_addr are used for the thread stack." Reclaimed only after
    // thread_wait returns.
    let mut region = vec![0u8; 128 * 1024];
    let done = Arc::new(AtomicU32::new(0));
    let d = Arc::clone(&done);
    // SAFETY: `region` outlives the thread (we thread_wait before drop) and
    // is used by nothing else.
    let id = unsafe {
        thread_create_on_stack(
            region.as_mut_ptr(),
            region.len(),
            CreateFlags::WAIT,
            move || {
                d.store(7, Ordering::SeqCst);
            },
        )
    }
    .expect("thread_create_on_stack");
    thread_wait(Some(id)).expect("thread_wait");
    assert_eq!(done.load(Ordering::SeqCst), 7);
    drop(region); // Now legal to reclaim.
}

#[test]
fn thread_get_id_is_stable_and_unique() {
    let me = thread_get_id();
    assert_eq!(thread_get_id(), me);
    let other = Arc::new(AtomicU32::new(0));
    let o = Arc::clone(&other);
    let id = thread_create(CreateFlags::WAIT, move || {
        o.store(thread_get_id().0, Ordering::SeqCst);
    })
    .expect("thread_create");
    thread_wait(Some(id)).expect("thread_wait");
    assert_ne!(other.load(Ordering::SeqCst), me.0);
}

#[test]
fn thread_exit_terminates_early() {
    let after = Arc::new(AtomicU32::new(0));
    let a = Arc::clone(&after);
    let id = thread_create(CreateFlags::WAIT, move || {
        if a.load(Ordering::SeqCst) == 0 {
            thread_exit();
        }
        unreachable!("code after thread_exit ran");
    })
    .expect("thread_create");
    thread_wait(Some(id)).expect("thread_wait");
    // "The exit status of a thread is always zero" — nothing to check
    // beyond clean reaping.
}

#[test]
fn thread_stop_and_thread_continue() {
    let progress = Arc::new(AtomicU32::new(0));
    let p = Arc::clone(&progress);
    let id = thread_create(CreateFlags::WAIT | CreateFlags::STOP, move || {
        p.store(1, Ordering::SeqCst);
    })
    .expect("thread_create");
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert_eq!(progress.load(Ordering::SeqCst), 0);
    thread_continue(id).expect("thread_continue");
    thread_wait(Some(id)).expect("thread_wait");
    assert_eq!(progress.load(Ordering::SeqCst), 1);
}

#[test]
fn thread_priority_returns_old_value() {
    let old = thread_priority(None, 7).expect("thread_priority");
    assert!(old >= 0);
    assert_eq!(thread_priority(None, old).expect("restore"), 7);
}

#[test]
fn thread_priority_demotion_kicks_a_running_thread() {
    // "Increasing the specified priority gives increasing scheduling
    // priority" — and a *demotion* of a running unbound thread must take
    // effect within one tick, not at its next voluntary reschedule:
    // `thread_priority` raises the target LWP's preempt flag, and the
    // target consumes it (decaying and re-running the dispatch check) at
    // its next safepoint even with no tick driver configured.
    thread_setconcurrency(1).expect("pin the pool at 1 LWP");
    let old_pri = thread_priority(None, 10).expect("raise creator priority");
    let before_decays = sunos_mt::threads::stats().decays;

    let stop = Arc::new(AtomicU32::new(0));
    let hog_running = Arc::new(AtomicU32::new(0));
    let (s, hr) = (Arc::clone(&stop), Arc::clone(&hog_running));
    let hog = thread_create(CreateFlags::WAIT, move || {
        while s.load(Ordering::SeqCst) == 0 {
            hr.store(1, Ordering::SeqCst);
            sunos_mt::threads::api::thread_preempt_point();
        }
    })
    .expect("spawn hog");
    while hog_running.load(Ordering::SeqCst) == 0 {
        std::hint::spin_loop();
    }

    // A same-priority waiter injected behind the spinning hog, then the
    // demotion that must let it through.
    let ran = Arc::new(AtomicU32::new(0));
    let r = Arc::clone(&ran);
    let waiter = thread_create(CreateFlags::WAIT, move || {
        r.store(1, Ordering::SeqCst);
    })
    .expect("spawn waiter");
    thread_priority(Some(hog), 0).expect("demote the hog");

    // The kicked flag must be consumed (a decay recorded) and the waiter
    // dispatched, both well within the bounded window.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while (ran.load(Ordering::SeqCst) == 0 || sunos_mt::threads::stats().decays == before_decays)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    stop.store(1, Ordering::SeqCst);
    thread_wait(Some(waiter)).expect("wait waiter");
    thread_wait(Some(hog)).expect("wait hog");
    assert_eq!(
        ran.load(Ordering::SeqCst),
        1,
        "waiter starved behind the demoted hog"
    );
    assert!(
        sunos_mt::threads::stats().decays > before_decays,
        "the demotion never raised the running hog's preempt flag"
    );
    thread_priority(None, old_pri).expect("restore creator priority");
    thread_setconcurrency(0).expect("unpin the pool");
}

#[test]
fn thread_setconcurrency_accepts_zero_and_n() {
    thread_setconcurrency(2).expect("explicit");
    thread_setconcurrency(0).expect("automatic");
}

#[test]
fn thread_sigsetmask_and_thread_kill() {
    let hits = Arc::new(AtomicU32::new(0));
    let h = Arc::clone(&hits);
    signals::set_disposition(
        signals::sig::SIGINT,
        signals::Disposition::Handler(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        })),
    )
    .expect("set handler");
    let old = thread_sigsetmask(MaskHow::Block, 1 << signals::sig::SIGINT);
    thread_kill(thread_get_id(), signals::sig::SIGINT).expect("thread_kill");
    assert_eq!(hits.load(Ordering::SeqCst), 0, "masked signal must pend");
    thread_sigsetmask(MaskHow::Unblock, 1 << signals::sig::SIGINT);
    assert_eq!(hits.load(Ordering::SeqCst), 1, "unmasking delivers");
    thread_sigsetmask(MaskHow::SetMask, old);
}

#[test]
fn thread_kill_unknown_thread_errors() {
    assert!(thread_kill(ThreadId(u32::MAX - 17), signals::sig::SIGINT).is_err());
}

#[test]
fn mutex_functions_by_paper_name() {
    let m = Mutex::new(SyncType::DEFAULT);
    mutex_init(&m, SyncType::DEFAULT);
    mutex_enter(&m);
    assert!(!mutex_tryenter(&m));
    mutex_exit(&m);
    assert!(mutex_tryenter(&m));
    mutex_exit(&m);
}

#[test]
fn condvar_functions_by_paper_name() {
    let m = Mutex::new(SyncType::DEFAULT);
    let cv = Condvar::new(SyncType::DEFAULT);
    cv_init(&cv, SyncType::DEFAULT);
    // The paper's monitor idiom with an already-true predicate.
    let ready = std::sync::atomic::AtomicBool::new(true);
    mutex_enter(&m);
    while !ready.load(std::sync::atomic::Ordering::Relaxed) {
        cv_wait(&cv, &m);
    }
    mutex_exit(&m);
    cv_signal(&cv);
    cv_broadcast(&cv);
}

#[test]
fn sema_functions_by_paper_name() {
    let s = Sema::new(0, SyncType::DEFAULT);
    sema_init(&s, 2, SyncType::DEFAULT);
    sema_p(&s);
    assert!(sema_tryp(&s));
    assert!(!sema_tryp(&s));
    sema_v(&s);
    sema_p(&s);
}

#[test]
fn rwlock_functions_by_paper_name() {
    let l = RwLock::new(SyncType::DEFAULT);
    rw_init(&l, SyncType::DEFAULT);
    rw_enter(&l, RwType::Reader);
    assert!(rw_tryenter(&l, RwType::Reader));
    rw_exit(&l);
    assert!(rw_tryupgrade(&l));
    rw_downgrade(&l);
    rw_exit(&l);
    rw_enter(&l, RwType::Writer);
    assert!(!rw_tryenter(&l, RwType::Reader));
    rw_exit(&l);
}

#[test]
fn cv_timedwait_by_paper_name() {
    // Kernel-futex path: the caller here is a bound (adopted host) thread.
    let m = Mutex::new(SyncType::DEFAULT);
    let cv = Condvar::new(SyncType::DEFAULT);
    let t0 = std::time::Instant::now();
    mutex_enter(&m);
    let signaled = cv_timedwait(&cv, &m, std::time::Duration::from_millis(30));
    mutex_exit(&m);
    assert!(
        !signaled,
        "nobody signaled; cv_timedwait must report timeout"
    );
    assert!(
        t0.elapsed() >= std::time::Duration::from_millis(25),
        "returned after {:?}",
        t0.elapsed()
    );

    // User-level sleep-queue path: an *unbound* thread times out on the
    // timer LWP, then is signaled on a second wait and reports it.
    let state = Arc::new((
        Mutex::new(SyncType::DEFAULT),
        Condvar::new(SyncType::DEFAULT),
        AtomicU32::new(0),
    ));
    let s = Arc::clone(&state);
    let id = thread_create(CreateFlags::WAIT, move || {
        let (m, cv, outcome) = &*s;
        mutex_enter(m);
        let first = cv_timedwait(cv, m, std::time::Duration::from_millis(20));
        outcome.store(1 + u32::from(first), Ordering::SeqCst);
        let second = cv_timedwait(cv, m, std::time::Duration::from_secs(10));
        mutex_exit(m);
        outcome.store(10 + u32::from(second), Ordering::SeqCst);
    })
    .expect("thread_create");
    // Wait until the thread has recorded its (un-signaled) timeout...
    while state.2.load(Ordering::SeqCst) != 1 {
        std::thread::yield_now();
    }
    // ...then signal its second, long wait.
    mutex_enter(&state.0);
    cv_signal(&state.1);
    mutex_exit(&state.0);
    thread_wait(Some(id)).expect("thread_wait");
    assert_eq!(
        state.2.load(Ordering::SeqCst),
        11,
        "the signaled cv_timedwait must return true"
    );
}

#[test]
fn sema_timedp_by_paper_name() {
    // Timeout on an empty semaphore (bound caller, kernel-futex path)...
    let s = Sema::new(0, SyncType::DEFAULT);
    assert!(!sema_timedp(&s, std::time::Duration::from_millis(20)));
    // ...must not have consumed anything: a V still satisfies a P.
    sema_v(&s);
    assert!(sema_timedp(&s, std::time::Duration::from_millis(20)));

    // Unbound caller: timeout comes from the sleep-queue timer; a V from
    // outside wakes the second, long wait.
    let pair = Arc::new((Sema::new(0, SyncType::DEFAULT), AtomicU32::new(0)));
    let p = Arc::clone(&pair);
    let id = thread_create(CreateFlags::WAIT, move || {
        let (sem, outcome) = &*p;
        let first = sema_timedp(sem, std::time::Duration::from_millis(20));
        outcome.store(1 + u32::from(first), Ordering::SeqCst);
        let second = sema_timedp(sem, std::time::Duration::from_secs(10));
        outcome.store(10 + u32::from(second), Ordering::SeqCst);
    })
    .expect("thread_create");
    while pair.1.load(Ordering::SeqCst) != 1 {
        std::thread::yield_now();
    }
    sema_v(&pair.0);
    thread_wait(Some(id)).expect("thread_wait");
    assert_eq!(
        pair.1.load(Ordering::SeqCst),
        11,
        "the V-satisfied sema_timedp must return true"
    );
}

#[test]
fn timed_waits_accept_duration_max() {
    // "Forever" as a timeout must mean blocking until signalled, on the
    // kernel-futex path (bound thread) and the sleep-queue path (unbound),
    // not an overflowing deadline.
    for flags in [CreateFlags::WAIT | CreateFlags::BIND_LWP, CreateFlags::WAIT] {
        for op in ["cv_timedwait", "sema_timedp", "recv_timeout"] {
            let state = Arc::new((
                Mutex::new(SyncType::DEFAULT),
                Condvar::new(SyncType::DEFAULT),
                Sema::new(0, SyncType::DEFAULT),
                AtomicU32::new(0),
            ));
            let (tx, rx) = sunos_mt::chan::bounded::<u32>(1);
            let w = Arc::clone(&state);
            let id = thread_create(flags, move || {
                let (mx, cv, sem, flag) = &*w;
                let got = match op {
                    "cv_timedwait" => {
                        mutex_enter(mx);
                        let mut signaled = true;
                        while signaled && flag.load(Ordering::SeqCst) == 0 {
                            signaled = cv_timedwait(cv, mx, Duration::MAX);
                        }
                        mutex_exit(mx);
                        signaled
                    }
                    "sema_timedp" => sema_timedp(sem, Duration::MAX),
                    _ => rx.recv_timeout(Duration::MAX) == Ok(7),
                };
                assert!(got, "{op} with Duration::MAX returned without a signal");
            })
            .expect("thread_create");
            // Let the waiter block first, so the wakeup lands on a parked
            // thread rather than racing ahead of the wait.
            std::thread::sleep(Duration::from_millis(20));
            let (mx, cv, sem, flag) = &*state;
            match op {
                "cv_timedwait" => {
                    mutex_enter(mx);
                    flag.store(1, Ordering::SeqCst);
                    cv_signal(cv);
                    mutex_exit(mx);
                }
                "sema_timedp" => sema_v(sem),
                _ => tx.send(7).expect("receiver alive"),
            }
            thread_wait(Some(id)).expect("thread_wait");
        }
    }
}
