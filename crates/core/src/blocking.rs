//! Indefinite-wait regions and the deadlock-avoidance contract.
//!
//! "When a thread executes a kernel call, it remains bound to the same
//! lightweight process for the duration of the kernel call. If the kernel
//! call blocks, that thread and its lightweight process remain blocked.
//! Other lightweight processes may execute other threads in that program."
//!
//! On our substrate a thread *is already* running on its LWP's host thread,
//! so a genuinely blocking operation (file I/O, `poll`-like waits, channel
//! receives from outside the process) naturally blocks the LWP and nothing
//! else. What the kernel cannot do for us is send `SIGWAITING` — so
//! [`blocking`] counts a pool LWP as blocked for the duration of the
//! operation, and when the last available pool LWP blocks this way while
//! runnable threads exist, the library grows the pool ("cause extra LWPs
//! to be created as required to avoid deadlock"). This bracket is the
//! library's only `SIGWAITING`; a wait outside it is invisible to the pool.

/// Runs a blocking ("indefinite, external") operation on the calling LWP.
///
/// Use it around anything the paper would call a blocking kernel call —
/// I/O, waiting on another process, sleeping:
///
/// ```
/// let line = sunmt::blocking(|| {
///     std::thread::sleep(std::time::Duration::from_millis(1));
///     "result"
/// });
/// assert_eq!(line, "result");
/// ```
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    // Make sure the library is live, and that this host thread has a
    // thread identity.
    crate::sched::init();
    let _ = crate::sched::current_thread();
    // Pool accounting: if this is the last available pool LWP, grow the
    // pool so queued unbound threads keep running (deadlock avoidance).
    crate::sched::pool_enter_blocking();
    struct Exit;
    impl Drop for Exit {
        fn drop(&mut self) {
            crate::sched::pool_exit_blocking();
        }
    }
    let _exit = Exit;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};

    #[test]
    fn blocking_returns_the_closure_value() {
        assert_eq!(blocking(|| 7 * 6), 42);
    }

    /// A pool LWP inside `blocking` counts in `pool_blocked` for the
    /// closure's duration and not after it, also when the closure panics.
    /// No other test in this binary blocks on a pool LWP, so the count
    /// moves only here.
    #[test]
    fn blocking_counts_in_pool_blocked_only_during_the_closure() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        let id = crate::ThreadBuilder::new()
            .flags(crate::CreateFlags::WAIT)
            .spawn(move || {
                let blocked = || crate::sched::mt().pool_blocked.load(Ordering::SeqCst);
                let mut s = s.lock().unwrap();
                s.push(crate::sched::on_pool_lwp() as usize);
                s.push(blocked());
                s.push(blocking(blocked));
                s.push(blocked());
                let panicked = std::panic::catch_unwind(|| {
                    blocking(|| panic!("inside a blocking region"));
                });
                s.push(panicked.is_err() as usize);
                s.push(blocked());
            })
            .unwrap();
        crate::wait(Some(id)).unwrap();
        let seen = seen.lock().unwrap();
        let [on_pool, before, during, after, panicked, after_panic] = seen[..] else {
            panic!("thread body did not finish: {seen:?}");
        };
        assert_eq!(on_pool, 1, "unbound threads run on pool LWPs");
        assert_eq!(during, before + 1, "the closure runs counted as blocked");
        assert_eq!(after, before, "the count is given back on return");
        assert_eq!(panicked, 1);
        assert_eq!(after_panic, before, "the count is given back on unwind");
    }
}
