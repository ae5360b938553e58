//! `thread_wait(NULL)` / `wait(None)`: "P_THREAD_ALL: waitid() waits for
//! any thread marked THREAD_WAIT."
//!
//! An any-wait reaps whichever waitable thread exits first, anywhere in
//! the process — run beside other tests it steals the threads they are
//! about to wait for by id. So it lives in a test binary (a process) of
//! its own, and its cases run as one test.

use sunos_mt::threads::api::{thread_create, thread_wait};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

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
}
