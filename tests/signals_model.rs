//! The paper's signal model across threads: traps to the causing thread,
//! interrupts to any unmasked thread, process-pending while all mask,
//! `thread_kill` targeting, and `sigsend(P_THREAD_ALL)` broadcast.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunos_mt::threads::signals::{self, sig, Disposition, MaskHow};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

/// Every test starts here. The thread registry and the process-pending
/// set are process-global, and `send_interrupt` may pick *any* registered
/// thread that leaves the signal unmasked — a sibling test's helper, or the
/// harness thread running a sibling test. So the tests take turns, and each
/// masks `SIGALRM` (the signal whose process-wide pending state is asserted
/// below) in its own thread before creating any other; created threads
/// inherit the mask.
fn isolated() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    signals::thread_sigsetmask(MaskHow::Block, 1u64 << sig::SIGALRM);
    guard
}

fn install_counter(signo: u32) -> Arc<AtomicUsize> {
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    signals::set_disposition(
        signo,
        Disposition::Handler(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        })),
    )
    .expect("set_disposition");
    hits
}

#[test]
fn thread_kill_reaches_only_the_target() {
    let _serial = isolated();
    let hits = install_counter(sig::SIGIO);
    let target_ran = Arc::new(AtomicU32::new(0));
    let release = Arc::new(AtomicU32::new(0));
    let (t, r) = (Arc::clone(&target_ran), Arc::clone(&release));
    let victim = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            t.store(threads::get_id().0, Ordering::SeqCst);
            while r.load(Ordering::SeqCst) == 0 {
                threads::yield_now(); // Delivery point.
            }
        })
        .expect("spawn");
    while target_ran.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = hits.load(Ordering::SeqCst);
    signals::thread_kill(victim, sig::SIGIO).expect("thread_kill");
    // The victim yields in a loop, so it reaches a delivery point promptly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while hits.load(Ordering::SeqCst) == before {
        assert!(
            std::time::Instant::now() < deadline,
            "signal never delivered"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    release.store(1, Ordering::SeqCst);
    threads::wait(Some(victim)).expect("wait");
}

#[test]
fn interrupt_pends_on_process_while_all_threads_mask_it() {
    let _serial = isolated();
    let hits = install_counter(sig::SIGALRM);
    let bit = 1u64 << sig::SIGALRM;
    // Mask in this thread; helper threads also mask, then one unmasks.
    let old = signals::thread_sigsetmask(MaskHow::Block, bit);
    let release = Arc::new(AtomicU32::new(0));
    let r = Arc::clone(&release);
    let masked_helper = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            signals::thread_sigsetmask(MaskHow::Block, bit);
            while r.load(Ordering::SeqCst) == 0 {
                threads::yield_now();
            }
        })
        .expect("spawn");
    std::thread::sleep(Duration::from_millis(10));

    let before = hits.load(Ordering::SeqCst);
    signals::send_interrupt(sig::SIGALRM).expect("send_interrupt");
    std::thread::sleep(Duration::from_millis(20));
    // Nobody can take it yet: every thread in the registry masks it (see
    // `isolated`). "If all threads mask a signal, it will pend on the
    // process until a thread unmasks that signal."
    assert_eq!(
        hits.load(Ordering::SeqCst),
        before,
        "a masked interrupt must not be delivered"
    );
    signals::thread_sigsetmask(MaskHow::Unblock, bit);
    assert!(
        hits.load(Ordering::SeqCst) > before,
        "unmasking must deliver the process-pending interrupt"
    );
    release.store(1, Ordering::SeqCst);
    threads::wait(Some(masked_helper)).expect("wait");
    signals::thread_sigsetmask(MaskHow::SetMask, old);
}

#[test]
fn sigsend_all_reaches_every_thread() {
    let _serial = isolated();
    let hits = install_counter(sig::SIGVTALRM);
    const N: usize = 4;
    let running = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicU32::new(0));
    let mut ids = Vec::new();
    for _ in 0..N {
        let (run, rel) = (Arc::clone(&running), Arc::clone(&release));
        ids.push(
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    run.fetch_add(1, Ordering::SeqCst);
                    while rel.load(Ordering::SeqCst) == 0 {
                        threads::yield_now();
                    }
                })
                .expect("spawn"),
        );
    }
    while running.load(Ordering::SeqCst) < N {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = hits.load(Ordering::SeqCst);
    signals::sigsend_all(sig::SIGVTALRM).expect("sigsend_all");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    // At least the N helpers (plus possibly this thread) deliver.
    while hits.load(Ordering::SeqCst) < before + N {
        assert!(
            std::time::Instant::now() < deadline,
            "broadcast reached only {} of {N}",
            hits.load(Ordering::SeqCst) - before
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    release.store(1, Ordering::SeqCst);
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
}

#[test]
fn traps_stay_with_the_causing_thread() {
    let _serial = isolated();
    let hits = install_counter(sig::SIGFPE);
    let which = Arc::new(AtomicU32::new(0));
    let w = Arc::clone(&which);
    let h2 = Arc::clone(&hits);
    let id = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            let before = h2.load(Ordering::SeqCst);
            signals::raise_trap(sig::SIGFPE).expect("raise_trap");
            // Synchronous delivery on this thread.
            assert_eq!(h2.load(Ordering::SeqCst), before + 1);
            w.store(1, Ordering::SeqCst);
        })
        .expect("spawn");
    threads::wait(Some(id)).expect("wait");
    assert_eq!(which.load(Ordering::SeqCst), 1);
}

#[test]
fn per_thread_masks_are_independent_and_inherited() {
    let _serial = isolated();
    let bit = 1u64 << sig::SIGINT;
    let old = signals::thread_sigsetmask(MaskHow::Block, bit);
    let child_mask = Arc::new(AtomicU32::new(0));
    let c = Arc::clone(&child_mask);
    let id = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            // "The initial ... signal mask is set to the same values as
            // its creator."
            let inherited = signals::current_mask();
            c.store(((inherited & bit) != 0) as u32, Ordering::SeqCst);
            // Changing ours must not touch the parent's.
            signals::thread_sigsetmask(MaskHow::Unblock, bit);
        })
        .expect("spawn");
    threads::wait(Some(id)).expect("wait");
    assert_eq!(
        child_mask.load(Ordering::SeqCst),
        1,
        "mask must be inherited"
    );
    assert_ne!(
        signals::current_mask() & bit,
        0,
        "parent mask must be intact"
    );
    signals::thread_sigsetmask(MaskHow::SetMask, old);
}
