//! The LWP-exit probe fires from `sunmt-lwp`'s TLS destructor, after the
//! LWP's own code is gone. It must still be counted by `counters()` and
//! reach the ring, even when it is the LWP's first recorded probe (so its
//! block is made during TLS teardown).

use std::sync::mpsc;

use sunmt_lwp::Lwp;
use sunmt_trace::Tag;

#[test]
fn lwp_exit_probe_from_a_tls_destructor_is_counted() {
    // The LWP starts before tracing is on, so its spawn probe records
    // nothing and the exit probe is its first.
    let (go, wait) = mpsc::channel::<()>();
    let lwp = Lwp::spawn(move || {
        let _ = wait.recv();
    })
    .expect("spawn LWP");
    let id = u64::from(lwp.id().0);

    sunmt_trace::enable();
    go.send(()).expect("LWP waiting");
    lwp.join();
    sunmt_trace::disable();

    assert_eq!(sunmt_trace::counters().get(Tag::LwpExit), 1);
    assert!(
        sunmt_trace::drain()
            .iter()
            .any(|e| e.tag == Tag::LwpExit && e.a == id),
        "the exit event of LWP {id} is missing from the ring"
    );
}
