//! # sunmt — the SunOS Multi-thread Architecture in Rust
//!
//! A reproduction of Powell, Kleiman, Barton, Shah, Stein & Weeks, *"SunOS
//! Multi-thread Architecture"*, USENIX Winter 1991: extremely lightweight
//! user-level **threads** multiplexed on kernel-supported **LWPs**, with the
//! full SunOS synchronization, signal, and thread-local-storage model.
//!
//! ## The two-level model
//!
//! * **Threads** ([`spawn`], [`ThreadBuilder`]) are data structures in
//!   process memory. Creating, synchronizing, and context-switching them
//!   does not enter the kernel; thousands may exist.
//! * **LWPs** (`sunmt-lwp`) are kernel-supported threads of control. The
//!   library multiplexes unbound threads on a pool of them, sized by
//!   [`set_concurrency`], by the `THREAD_NEW_LWP` flag, or automatically by
//!   the `SIGWAITING` mechanism when every pool LWP is in [`blocking`] with
//!   work outstanding.
//! * [`CreateFlags::BIND_LWP`] permanently binds a thread to its own LWP —
//!   "a programmer can write thread code that is really LWP code, much like
//!   locking down pages turns virtual memory into real memory."
//!
//! ## Quick start
//!
//! ```
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use std::sync::Arc;
//! use sunmt::{CreateFlags, ThreadBuilder};
//!
//! let counter = Arc::new(AtomicU32::new(0));
//! let mut ids = Vec::new();
//! for _ in 0..8 {
//!     let c = Arc::clone(&counter);
//!     ids.push(
//!         ThreadBuilder::new()
//!             .flags(CreateFlags::WAIT)
//!             .spawn(move || {
//!                 c.fetch_add(1, Ordering::SeqCst);
//!             })
//!             .unwrap(),
//!     );
//! }
//! for id in ids {
//!     sunmt::wait(Some(id)).unwrap();
//! }
//! assert_eq!(counter.load(Ordering::SeqCst), 8);
//! ```
//!
//! ## Synchronization
//!
//! The SunOS synchronization variables (mutex, condition variable,
//! semaphore, readers/writer lock) are re-exported from [`sync`]; the same
//! variable blocks an unbound thread at user level and a bound thread in
//! the kernel, and `SyncType::SHARED` variables placed in `MAP_SHARED`
//! files synchronize threads of different processes (`sunmt-shm`).
//!
//! ## Paper-faithful names
//!
//! [`api`] mirrors Figure 4 verbatim: `thread_create`, `thread_wait`,
//! `mutex_enter`, `cv_broadcast`, `sema_p`, `rw_tryupgrade`, ...

#![deny(missing_docs)]

pub mod api;
pub mod blocking;
pub mod debug;
pub mod signals;
pub mod timers;
pub mod tls;
pub mod types;

pub mod runq;

mod magazine;
mod sched;
mod sleepq;
mod strategy;
mod thread;
mod timeoutq;

pub use blocking::blocking;
pub use sched::{init, stats, SchedStats};
pub use thread::{
    concurrency, cont, current_has_thread, current_is_unbound, exit, get_id, set_concurrency,
    set_priority, spawn, stop, wait, yield_now, ThreadBuilder,
};
pub use types::{CreateFlags, MtError, Result, ThreadId, ThreadState};

/// The SunOS synchronization variables (re-export of `sunmt-sync`).
pub mod sync {
    pub use sunmt_sync::{api, Condvar, Mutex, RwLock, RwType, Sema, SyncType};
}

/// TNF-style tracing and metrics (re-export of `sunmt-trace`).
///
/// Probes are compiled into the scheduler, the synchronization variables,
/// and the LWP layer; they cost one relaxed load while disabled. Typical
/// use:
///
/// ```
/// sunmt::trace::enable();
/// // ... run threaded work ...
/// sunmt::trace::disable();
/// let events = sunmt::trace::drain();
/// println!("{}", sunmt::trace::render(&events));
/// let json = sunmt::trace::export_chrome(&events); // chrome://tracing
/// let totals = sunmt::trace::counters();
/// # let _ = (json, totals);
/// ```
pub mod trace {
    pub use sunmt_trace::{
        counters, disable, drain, enable, enabled, export_chrome, render, Counters, Event, Tag,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn per_lwp_written_structures_keep_their_cache_lines() {
        use std::mem::align_of;
        // What an LWP writes per child or per dispatch must not share a
        // cache line with what another LWP writes; these alignments are
        // the padding that guarantees it.
        assert!(align_of::<thread::Thread>() >= 64, "Thread");
        assert!(
            align_of::<runq::Shard<(i32, u64)>>() >= 64,
            "run-queue Shard"
        );
        assert!(align_of::<sched::RegistryShard>() >= 64, "RegistryShard");
    }

    #[test]
    fn unbound_thread_runs_and_is_waited() {
        let ran = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&ran);
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                r.store(7, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(wait(Some(id)).unwrap(), id);
        assert_eq!(ran.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn bound_thread_runs_and_is_waited() {
        let ran = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&ran);
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT | CreateFlags::BIND_LWP)
            .spawn(move || {
                r.store(9, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(wait(Some(id)).unwrap(), id);
        assert_eq!(ran.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn many_unbound_threads_on_few_lwps() {
        // "thousands present" is the paper's design point; a few hundred
        // keeps the unit test fast while exercising the multiplexing.
        const N: usize = 300;
        let done = Arc::new(AtomicUsize::new(0));
        let mut ids = Vec::new();
        for _ in 0..N {
            let d = Arc::clone(&done);
            ids.push(
                ThreadBuilder::new()
                    .flags(CreateFlags::WAIT)
                    .spawn(move || {
                        yield_now();
                        d.fetch_add(1, Ordering::SeqCst);
                    })
                    .unwrap(),
            );
        }
        for id in ids {
            wait(Some(id)).unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), N);
    }

    #[test]
    fn wait_for_unwaitable_thread_errors() {
        let gate = Arc::new(sync::Sema::new(0, sync::SyncType::DEFAULT));
        let g = Arc::clone(&gate);
        let id = spawn(move || g.p()).unwrap();
        assert!(matches!(wait(Some(id)), Err(MtError::NotWaitable(_))));
        gate.v();
    }

    #[test]
    fn double_wait_errors() {
        let gate = Arc::new(sync::Sema::new(0, sync::SyncType::DEFAULT));
        let g = Arc::clone(&gate);
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || g.p())
            .unwrap();
        // First wait will block; issue it from a helper thread, then the
        // second wait (here) must fail immediately.
        let id2 = id;
        let helper = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                wait(Some(id2)).unwrap();
            })
            .unwrap();
        // Let the helper claim the wait: it is queued behind whatever the
        // pool runs for the other tests, so no fixed delay is enough.
        let t = sched::lookup(id).unwrap();
        while t.exit.load(Ordering::SeqCst) != thread::CLAIMED {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(wait(Some(id)), Err(MtError::AlreadyWaited(_))));
        gate.v();
        wait(Some(helper)).unwrap();
    }

    #[test]
    fn created_stopped_runs_only_after_continue() {
        let ran = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&ran);
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT | CreateFlags::STOP)
            .spawn(move || {
                r.store(1, Ordering::SeqCst);
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "THREAD_STOP must suspend");
        cont(id).unwrap();
        wait(Some(id)).unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stop_and_continue_a_yielding_thread() {
        let progress = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicU32::new(0));
        let (p, d) = (Arc::clone(&progress), Arc::clone(&done));
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                while d.load(Ordering::SeqCst) == 0 {
                    p.fetch_add(1, Ordering::SeqCst);
                    yield_now();
                }
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        stop(Some(id)).unwrap();
        let frozen = progress.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            progress.load(Ordering::SeqCst),
            frozen,
            "a stopped thread must make no progress"
        );
        done.store(1, Ordering::SeqCst);
        cont(id).unwrap();
        wait(Some(id)).unwrap();
    }

    #[test]
    fn priority_is_returned_and_validated() {
        let old = set_priority(None, 5).unwrap();
        assert!(old >= 0);
        let prev = set_priority(None, old.max(0)).unwrap();
        assert_eq!(prev, 5);
        assert!(matches!(
            set_priority(None, -1),
            Err(MtError::BadPriority(-1))
        ));
    }

    #[test]
    fn unknown_thread_operations_error() {
        let bogus = ThreadId(u32::MAX - 3);
        assert!(matches!(wait(Some(bogus)), Err(MtError::UnknownThread(_))));
        assert!(matches!(cont(bogus), Err(MtError::UnknownThread(_))));
        assert!(matches!(stop(Some(bogus)), Err(MtError::UnknownThread(_))));
    }

    #[test]
    fn threads_inherit_creator_priority() {
        let old = set_priority(None, 9).unwrap();
        let observed = Arc::new(AtomicU32::new(u32::MAX));
        let o = Arc::clone(&observed);
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                // A thread reads its own priority by setting it.
                let mine = set_priority(None, 9).unwrap();
                o.store(mine as u32, Ordering::SeqCst);
            })
            .unwrap();
        wait(Some(id)).unwrap();
        assert_eq!(observed.load(Ordering::SeqCst), 9);
        set_priority(None, old).unwrap();
    }

    #[test]
    fn unbound_threads_synchronize_through_a_mutex() {
        const THREADS: usize = 16;
        const ITERS: usize = 200;
        struct SharedCounter {
            m: sync::Mutex,
            value: std::cell::UnsafeCell<usize>,
        }
        // SAFETY: `value` is only touched under `m`.
        unsafe impl Sync for SharedCounter {}
        let shared = Arc::new(SharedCounter {
            m: sync::Mutex::new(sync::SyncType::DEFAULT),
            value: std::cell::UnsafeCell::new(0),
        });
        let mut ids = Vec::new();
        for _ in 0..THREADS {
            let s = Arc::clone(&shared);
            ids.push(
                ThreadBuilder::new()
                    .flags(CreateFlags::WAIT)
                    .spawn(move || {
                        for _ in 0..ITERS {
                            s.m.enter();
                            // SAFETY: Mutual exclusion via `m`.
                            unsafe { *s.value.get() += 1 };
                            s.m.exit();
                        }
                    })
                    .unwrap(),
            );
        }
        for id in ids {
            wait(Some(id)).unwrap();
        }
        // SAFETY: All writers joined.
        assert_eq!(unsafe { *shared.value.get() }, THREADS * ITERS);
    }

    #[test]
    fn semaphore_ping_pong_between_unbound_threads() {
        let s1 = Arc::new(sync::Sema::new(0, sync::SyncType::DEFAULT));
        let s2 = Arc::new(sync::Sema::new(0, sync::SyncType::DEFAULT));
        let (a1, a2) = (Arc::clone(&s1), Arc::clone(&s2));
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                for _ in 0..500 {
                    a1.p();
                    a2.v();
                }
            })
            .unwrap();
        let id2 = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                for _ in 0..500 {
                    s1.v();
                    s2.p();
                }
            })
            .unwrap();
        wait(Some(id)).unwrap();
        wait(Some(id2)).unwrap();
    }
}
