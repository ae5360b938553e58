//! `thread_wait(NULL)` / `wait(None)`: "P_THREAD_ALL: waitid() waits for
//! any thread marked THREAD_WAIT."
//!
//! An any-wait reaps any exited `THREAD_WAIT` thread that no specific
//! waiter has claimed, anywhere in the process — run beside other tests it
//! steals the threads they are about to wait for by id. So it lives in a
//! test binary (a process) of its own, and its cases run as one test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunos_mt::sync::{Sema, SyncType};
use sunos_mt::threads::api::{thread_create, thread_wait};
use sunos_mt::threads::{self, CreateFlags, MtError, ThreadBuilder};

#[test]
fn any_wait_reaps_a_waitable_thread() {
    // By the library name.
    let id = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(|| {})
        .expect("spawn");
    assert_eq!(threads::wait(None).expect("wait(None)"), id);

    // By the paper's name; the returned id is valid-but-now-unusable.
    let id = thread_create(CreateFlags::WAIT, || {}).expect("thread_create");
    let got = thread_wait(None).expect("thread_wait(NULL)");
    assert_eq!(got, id);
    assert!(
        thread_wait(Some(got)).is_err(),
        "reaped id must be unusable"
    );

    // The only unreaped WAIT thread is claimed by a specific waiter: it is
    // not the any-wait's to reap, so the any-wait reports that nothing is
    // left instead of blocking until (and past) its exit.
    let gate = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let g = Arc::clone(&gate);
    let t = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || g.p())
        .expect("spawn gated thread");
    let claimed = Arc::new(AtomicBool::new(false));
    let c = Arc::clone(&claimed);
    let waiter = std::thread::spawn(move || {
        c.store(true, Ordering::SeqCst);
        threads::wait(Some(t))
    });
    while !claimed.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    let opener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        gate.v();
    });
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(threads::wait(None));
    });
    let any = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("wait(None) hung on a thread that a specific waiter claimed");
    assert!(
        matches!(any, Err(MtError::NothingToWait)),
        "wait(None) returned {any:?}, not NothingToWait"
    );
    opener.join().expect("opener");
    assert_eq!(waiter.join().expect("waiter").expect("wait(Some)"), t);
}
