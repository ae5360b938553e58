//! Adopted host threads leave the thread registry when they exit.
//!
//! A host thread that calls into the library is adopted as a bound thread
//! and entered in the registry that `stats()` counts and `send_interrupt`
//! picks a receiver from. Its entry must go when the host thread does, or
//! the registry fills with dead threads an interrupt can be handed to.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};

use sunos_mt::threads;

#[test]
fn joined_host_threads_leave_the_registry() {
    const HOSTS: usize = 100;
    // Adopt this thread first, so the baseline counts it.
    let _ = threads::get_id();
    let baseline = threads::stats().live_threads;
    let all_adopted = Arc::new(Barrier::new(HOSTS + 1));
    let handles: Vec<_> = (0..HOSTS)
        .map(|_| {
            let all_adopted = Arc::clone(&all_adopted);
            std::thread::spawn(move || {
                let id = threads::get_id();
                all_adopted.wait();
                all_adopted.wait();
                id
            })
        })
        .collect();
    all_adopted.wait();
    assert_eq!(threads::stats().live_threads, baseline + HOSTS);
    all_adopted.wait();
    let ids: HashSet<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        ids.len(),
        HOSTS,
        "each host thread is adopted under its own id"
    );
    assert_eq!(threads::stats().live_threads, baseline);
}
