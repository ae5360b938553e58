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
//!
//! A wake releases user-level sleepers first and then kernel ones. The
//! kernel half is [`sunmt_sync::strategy::kernel_unpark`], which makes the
//! `futex_wake` system call only when a kernel thread is parked in the
//! word's address bucket, so a wake among unbound threads never enters the
//! kernel. Nothing moves a sleeper from one word's queue to another's, so
//! a thread leaves a sleep queue only by being woken from it or by its own
//! deadline.

use core::sync::atomic::AtomicU32;

use sunmt_sync::strategy::{self, BlockStrategy};

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
            // Kernel sleep (bound thread / adopted thread / bare LWP),
            // counted so that wakes on this word reach the kernel.
            strategy::kernel_park(word, expected, None);
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
            let deadline = sunmt_sys::time::monotonic_now().saturating_add(timeout);
            sched::deschedule(Action::Sleep {
                addr: word.as_ptr() as usize,
                expected,
                deadline: Some(deadline),
            });
        } else {
            strategy::kernel_park(word, expected, Some(timeout));
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
        // If the user-level queue satisfied every requested wake, the
        // contract (*up to* `n` wakes) is met and the kernel half is not
        // run at all. A wake-all (`n == u32::MAX`) always runs it.
        if woken >= n as usize && n != u32::MAX {
            return;
        }
        // The kernel half wakes only if a kernel thread is parked in the
        // word's bucket. A woken unbound receiver stays counted in its
        // channel's waiter count until it is dispatched, so senders in that
        // window land here with nobody left to wake, and skip the call.
        strategy::kernel_unpark(word, n);
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
            sunmt_trace::gauge::inc(sunmt_trace::Gauge::PiBoosts);
            pri
        } else {
            0
        }
    }

    fn pi_strip(&self, owner_hint: u32) -> i32 {
        sunmt_lwp::boost_clear(owner_hint)
    }
}
