//! Condition variables.
//!
//! "Condition variables are used to wait until a particular condition is
//! true. Condition variables must be used in conjunction with a mutex lock.
//! This implements a typical monitor."

use core::sync::atomic::{AtomicU32, Ordering};
use core::time::Duration;

use crate::mutex::Mutex;
use crate::strategy;
use crate::types::SyncType;

/// A SunOS-style condition variable (`condvar_t`).
///
/// Three words, position independent, and valid when zeroed, like every
/// variable in this crate. The wakeup-sequence word monotonically counts
/// signals; a waiter sleeps only while the sequence still holds the value
/// it sampled *before* releasing the mutex, which closes the classic
/// lost-wakeup window.
///
/// A condition variable knows nothing of the mutex it is used with. Per
/// the paper, `cv_broadcast` "causes all threads blocking on the condition
/// to re-contend for the mutex": it wakes every waiter, and each one
/// reacquires the mutex with a plain `mutex_enter`.
#[repr(C)]
#[derive(Debug, Default)]
pub struct Condvar {
    seq: AtomicU32,
    waiters: AtomicU32,
    kind: AtomicU32,
}

impl Condvar {
    /// Creates a condition variable of the given variant.
    pub const fn new(kind: SyncType) -> Condvar {
        Condvar {
            seq: AtomicU32::new(0),
            waiters: AtomicU32::new(0),
            kind: AtomicU32::new(kind.0),
        }
    }

    /// `cv_init()`: (re)initializes the variable to the given variant.
    ///
    /// Must not be called while any thread waits on the variable.
    pub fn init(&self, kind: SyncType) {
        self.seq.store(0, Ordering::Release);
        self.waiters.store(0, Ordering::Release);
        self.kind.store(kind.0, Ordering::Release);
    }

    #[inline]
    fn shared(&self) -> bool {
        SyncType(self.kind.load(Ordering::Relaxed)).is_shared()
    }

    /// `cv_wait()`: blocks until the condition is signaled.
    ///
    /// "It releases the associated mutex before blocking, and reacquires it
    /// before returning. Since the reacquiring of the mutex may be blocked
    /// by other threads waiting for the mutex, the condition that caused the
    /// wait must be re-tested," i.e. call this in a `while` loop:
    ///
    /// ```
    /// use sunmt_sync::{Condvar, Mutex, SyncType};
    /// let m = Mutex::new(SyncType::DEFAULT);
    /// let cv = Condvar::new(SyncType::DEFAULT);
    /// let mut ready = true; // Toy predicate.
    /// m.enter();
    /// while !ready {
    ///     cv.wait(&m);
    /// }
    /// m.exit();
    /// ```
    pub fn wait(&self, mutex: &Mutex) {
        // Announce before sampling the sequence: a signaler that misses
        // this increment necessarily bumped `seq` first, so our park
        // returns immediately on the value mismatch (no lost wakeup).
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let seen = self.seq.load(Ordering::SeqCst);
        mutex.exit();
        // Sleeps only if no signal has arrived since `seen` was sampled
        // under the mutex; spurious wakeups are fine because the caller
        // re-tests its predicate.
        sunmt_trace::probe!(sunmt_trace::Tag::CvBlock, &self.seq as *const _ as usize);
        strategy::park(&self.seq, seen, self.shared());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        mutex.enter();
    }

    /// `cv_timedwait()`: like [`Self::wait`], but gives up after `timeout`.
    ///
    /// Returns `true` if the variable was signaled and `false` on timeout.
    /// Either way the mutex is reacquired before returning, and (as with
    /// `cv_wait`) the caller must re-test its predicate: a `true` return
    /// means a signal arrived, not that this thread's condition holds.
    pub fn timed_wait(&self, mutex: &Mutex, timeout: Duration) -> bool {
        let deadline = sunmt_sys::time::monotonic_now().saturating_add(timeout);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let seen = self.seq.load(Ordering::SeqCst);
        mutex.exit();
        sunmt_trace::probe!(sunmt_trace::Tag::CvBlock, &self.seq as *const _ as usize);
        // The park carries no verdict (it may return spuriously), so the
        // deadline is re-derived from the clock each round. The `seq`
        // check comes first so that a signal racing the deadline counts as
        // a signal: the signaller already spent its wakeup on this waiter.
        let signaled = loop {
            if self.seq.load(Ordering::SeqCst) != seen {
                break true;
            }
            let now = sunmt_sys::time::monotonic_now();
            if now >= deadline {
                break false;
            }
            strategy::park_timeout(&self.seq, seen, self.shared(), deadline - now);
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        mutex.enter();
        signaled
    }

    /// `cv_signal()`: wakes one of the threads blocked in [`Self::wait`].
    ///
    /// "There is no guaranteed order of acquisition if more than one thread
    /// blocks on the condition variable."
    pub fn signal(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            sunmt_stat::stat_count!(sunmt_stat::Ctr::CvSignal);
            strategy::unpark(&self.seq, 1, self.shared());
        }
    }

    /// `cv_broadcast()`: wakes all threads blocked in [`Self::wait`].
    ///
    /// "Since `cv_broadcast()` causes all threads blocking on the condition
    /// to re-contend for the mutex, it should be used with care."
    pub fn broadcast(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            sunmt_stat::stat_count!(sunmt_stat::Ctr::CvWakeAll);
            strategy::unpark(&self.seq, u32::MAX, self.shared());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn zeroed_condvar_is_usable() {
        // Three words, like `Mutex`'s four: records in mapped files keep
        // their layout.
        assert_eq!(core::mem::size_of::<Condvar>(), 12);
        let zeroed = [0u32; 3];
        // SAFETY: Condvar is repr(C) over three 32-bit atomics; all-zero is
        // the documented valid default state.
        let cv: &Condvar = unsafe { &*(zeroed.as_ptr() as *const Condvar) };
        cv.signal();
        cv.broadcast();
    }

    struct Monitor {
        m: Mutex,
        cv: Condvar,
        ready: AtomicUsize,
    }

    #[test]
    fn signal_wakes_one_waiter() {
        let mon = Arc::new(Monitor {
            m: Mutex::new(SyncType::DEFAULT),
            cv: Condvar::new(SyncType::DEFAULT),
            ready: AtomicUsize::new(0),
        });
        let mon2 = Arc::clone(&mon);
        let waiter = std::thread::spawn(move || {
            mon2.m.enter();
            while mon2.ready.load(Ordering::Relaxed) == 0 {
                mon2.cv.wait(&mon2.m);
            }
            mon2.m.exit();
        });
        std::thread::sleep(Duration::from_millis(10));
        mon.m.enter();
        mon.ready.store(1, Ordering::Relaxed);
        mon.cv.signal();
        mon.m.exit();
        waiter.join().unwrap();
    }

    #[test]
    fn broadcast_wakes_all_waiters() {
        const WAITERS: usize = 6;
        let mon = Arc::new(Monitor {
            m: Mutex::new(SyncType::DEFAULT),
            cv: Condvar::new(SyncType::DEFAULT),
            ready: AtomicUsize::new(0),
        });
        let mut handles = Vec::new();
        for _ in 0..WAITERS {
            let mon = Arc::clone(&mon);
            handles.push(std::thread::spawn(move || {
                mon.m.enter();
                while mon.ready.load(Ordering::Relaxed) == 0 {
                    mon.cv.wait(&mon.m);
                }
                mon.m.exit();
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        mon.m.enter();
        mon.ready.store(1, Ordering::Relaxed);
        mon.cv.broadcast();
        mon.m.exit();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn timed_wait_times_out_with_mutex_reacquired() {
        let m = Mutex::new(SyncType::DEFAULT);
        let cv = Condvar::new(SyncType::DEFAULT);
        m.enter();
        let t0 = sunmt_sys::time::monotonic_now();
        let signaled = cv.timed_wait(&m, Duration::from_millis(30));
        let waited = sunmt_sys::time::monotonic_now() - t0;
        assert!(!signaled);
        assert!(
            waited >= Duration::from_millis(25),
            "returned after {waited:?}"
        );
        // The mutex must be held again on return.
        m.exit();
    }

    #[test]
    fn timed_wait_returns_true_on_signal() {
        let mon = Arc::new(Monitor {
            m: Mutex::new(SyncType::DEFAULT),
            cv: Condvar::new(SyncType::DEFAULT),
            ready: AtomicUsize::new(0),
        });
        let mon2 = Arc::clone(&mon);
        let signaler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            mon2.m.enter();
            mon2.ready.store(1, Ordering::Relaxed);
            mon2.cv.signal();
            mon2.m.exit();
        });
        mon.m.enter();
        let mut signaled = true;
        while mon.ready.load(Ordering::Relaxed) == 0 && signaled {
            signaled = mon.cv.timed_wait(&mon.m, Duration::from_secs(10));
        }
        mon.m.exit();
        assert!(signaled);
        signaler.join().unwrap();
    }

    #[test]
    fn signal_before_wait_is_not_lost_when_predicate_set() {
        // A signal with no waiter is absorbed by the predicate, exactly as
        // in the paper's monitor pattern.
        let mon = Monitor {
            m: Mutex::new(SyncType::DEFAULT),
            cv: Condvar::new(SyncType::DEFAULT),
            ready: AtomicUsize::new(0),
        };
        mon.m.enter();
        mon.ready.store(1, Ordering::Relaxed);
        mon.cv.signal();
        // A waiter arriving later re-tests the predicate and never sleeps.
        while mon.ready.load(Ordering::Relaxed) == 0 {
            mon.cv.wait(&mon.m);
        }
        mon.m.exit();
    }
}
