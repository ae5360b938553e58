//! The global LWP registry counts live LWPs process-wide, so a test that
//! reads the count cannot share a process with tests that spawn and join
//! LWPs of their own: it is the only test in this binary.

use std::sync::mpsc;

use sunmt_lwp::{registry, Lwp};

#[test]
fn spawn_registers_with_the_global_registry() {
    let before = registry::global().counts().total;
    let (release, gate) = mpsc::channel::<()>();
    let lwp = Lwp::spawn(move || {
        let _ = gate.recv();
    })
    .expect("spawn");
    assert_eq!(registry::global().counts().total, before + 1);
    release.send(()).expect("LWP is waiting on the gate");
    lwp.join();
    assert_eq!(registry::global().counts().total, before);
}
