//! The threads library's blocking strategy.
//!
//! Installed into `sunmt-sync` at initialization, this is the mechanism
//! behind the paper's central performance claim: "if a thread needs to
//! interact with other threads in the same process, it can do so without
//! involving the operating system."
//!
//! * An **unbound thread** parking on a private variable goes onto the
//!   user-level sleep queue and its LWP dispatches another thread — no
//!   system call.
//! * A **bound thread** (or the adopted initial thread, or a bare LWP with
//!   no thread identity) parks in the kernel on a futex — the paper's
//!   "blocking a bound thread blocks its LWP".
//! * Variables with the `SHARED` variant never reach this strategy:
//!   `sunmt-sync` routes them straight to the kernel, because "the thread is
//!   temporarily bound to the LWP that is blocked by the kernel".

use core::sync::atomic::{AtomicU32, Ordering};

use sunmt_sync::strategy::BlockStrategy;
use sunmt_sys::futex::{self, Scope};

use crate::sched::{self, Action};

/// The singleton strategy object (installed by [`crate::sched::mt`]).
pub(crate) struct MtStrategy;

/// See module docs.
pub(crate) static MT_STRATEGY: MtStrategy = MtStrategy;

fn current_unbound() -> bool {
    sched::maybe_current().is_some_and(|t| !t.bound)
}

impl BlockStrategy for MtStrategy {
    fn park(&self, word: &AtomicU32, expected: u32, shared: bool) {
        debug_assert!(!shared, "shared variables park in the kernel directly");
        if current_unbound() {
            // User-level sleep: the dispatcher commits the sleep after the
            // context switch, re-checking `word` under the sleep-table lock
            // so a racing unpark cannot be lost.
            sched::deschedule(Action::Sleep {
                addr: word.as_ptr() as usize,
                expected,
                deadline: None,
            });
        } else {
            // Kernel sleep (bound thread / adopted thread / bare LWP).
            if word.load(Ordering::SeqCst) == expected {
                let _ = futex::wait(word, expected, Scope::Private);
            }
            sched::check_stop_current();
            crate::signals::poll();
        }
    }

    fn park_timeout(
        &self,
        word: &AtomicU32,
        expected: u32,
        shared: bool,
        timeout: core::time::Duration,
    ) {
        debug_assert!(!shared, "shared variables park in the kernel directly");
        if current_unbound() {
            // Same user-level sleep as `park`, with a deadline the timer
            // LWP enforces; no kernel timer is armed for the thread.
            let deadline = sunmt_sys::time::monotonic_now() + timeout;
            sched::deschedule(Action::Sleep {
                addr: word.as_ptr() as usize,
                expected,
                deadline: Some(deadline),
            });
        } else {
            if word.load(Ordering::SeqCst) == expected {
                let _ = futex::wait_timeout(word, expected, Scope::Private, timeout);
            }
            sched::check_stop_current();
            crate::signals::poll();
        }
    }

    fn unpark(&self, word: &AtomicU32, n: u32, shared: bool) {
        debug_assert!(!shared);
        // Wake user-level sleepers first (cheap, no kernel), then kernel
        // waiters. Waking up to `n` of each may over-wake; the futex-shaped
        // contract permits spurious wakes and all callers re-check.
        let woken = sched::user_unpark(word.as_ptr() as usize, n as usize);
        // If the user-level queue satisfied every requested wake, skip the
        // kernel syscall: the contract only promises *up to* `n` wakes, and
        // any bound waiter that raced in will be found by the next unpark
        // (its waker re-checks the word before parking). Never skipped for
        // wake-all — `n == u32::MAX` must always flush kernel waiters too.
        if woken >= n as usize && n != u32::MAX {
            return;
        }
        sunmt_trace::probe!(sunmt_trace::Tag::FutexWake, word.as_ptr() as usize, n);
        let _ = futex::wake(word, n, Scope::Private);
    }

    fn unpark_requeue(&self, word: &AtomicU32, expected: u32, target: &AtomicU32, shared: bool) {
        debug_assert!(!shared);
        // User-level half: wake one sleeper, move the rest from the cv's
        // sleep queue onto the mutex's — still asleep, dispatched only as
        // the mutex's own unparks release them.
        sched::user_requeue(word.as_ptr() as usize, target.as_ptr() as usize, 1);
        // Kernel half, for bound threads (and bare LWPs) parked on the same
        // word. Both halves waking one waiter each is benign over-waking;
        // the futex-shaped contract permits spurious wakes.
        match futex::cmp_requeue(word, expected, 1, target, i32::MAX as u32, Scope::Private) {
            Ok(_) => {
                sunmt_trace::probe!(sunmt_trace::Tag::FutexWake, word.as_ptr() as usize, 1u32);
            }
            Err(_) => {
                // `word` moved on under us (racing signaller): fall back to
                // the pre-morphing wake-everyone behaviour.
                sunmt_trace::probe!(
                    sunmt_trace::Tag::FutexWake,
                    word.as_ptr() as usize,
                    u32::MAX
                );
                let _ = futex::wake_all(word, Scope::Private);
            }
        }
    }

    fn yield_now(&self) {
        if current_unbound() {
            sched::deschedule(Action::Yield);
        } else {
            sunmt_sys::task::sched_yield();
        }
    }

    fn self_id(&self) -> u32 {
        // Ownership identity for DEBUG-variant tracking must follow the
        // *thread*, which may migrate between LWPs; the high bit keeps
        // thread ids disjoint from raw kernel task ids.
        match sched::maybe_current() {
            Some(t) => 0x8000_0000 | t.id.0,
            None => sunmt_sys::task::gettid(),
        }
    }

    fn lwp_hint(&self) -> u32 {
        // The hint names the LWP, not the thread: an adaptive waiter spins
        // exactly while the *processor* running the holder stays busy,
        // whichever thread the holder happens to be.
        sunmt_lwp::current().running_hint()
    }

    fn reader_slot(&self) -> Option<usize> {
        // A pool LWP's home run-queue shard: shards are one per processor
        // and handed out round-robin, so LWPs of a pool no bigger than the
        // processor count never share one. Off the pool, the lock's own
        // per-kernel-thread index serves.
        sched::my_shard()
    }

    fn lwp_running(&self, hint: u32) -> bool {
        sunmt_lwp::hint_is_running(hint)
    }

    fn pi_boost(&self, owner_hint: u32) -> i32 {
        // The boost carries the waiter's *base* priority — what the lock
        // holder's LWP must effectively outrank to stay on its processor
        // until the release strips it. `boost_raise` is a fetch_max, so
        // concurrent waiters leave the highest claim standing.
        let Some(t) = sched::maybe_current() else {
            return 0;
        };
        let pri = t.priority();
        if pri > 0 && sunmt_lwp::boost_raise(owner_hint, pri) {
            sched::mt()
                .pi_boosts
                .fetch_add(1, core::sync::atomic::Ordering::Relaxed);
            pri
        } else {
            0
        }
    }

    fn pi_strip(&self, owner_hint: u32) -> i32 {
        sunmt_lwp::boost_clear(owner_hint)
    }
}
