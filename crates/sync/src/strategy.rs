//! Pluggable blocking: how a contended synchronization variable suspends the
//! caller.
//!
//! The same `mutex_enter` call must (per the paper) block a *user-level
//! thread* without kernel involvement when called from an unbound thread,
//! and block the *LWP in the kernel* when called from a bound thread, from
//! plain LWP code, or on a process-shared variable. This module is that
//! dispatch point: sync variables park through the process-global
//! [`BlockStrategy`], which the threads library replaces at startup.
//!
//! The contract is futex-shaped, which both backends implement naturally:
//! `park(word, expected)` sleeps only while `*word == expected`, and
//! `unpark(word, n)` releases up to `n` sleepers. Those two calls are the
//! whole contract; `cv_broadcast` is `unpark(word, u32::MAX)`.
//!
//! Sync variables are not the only clients: `sunmt-chan` parks its
//! channel waiters, select waiters, and async `Waker`s on private
//! eventcount words through the same entry points, so every message
//! wait inherits the two-level blocking split (and the scheduler's
//! futex-elision on user-level wakes) without that crate knowing which
//! backend is installed.

use core::sync::atomic::AtomicU32;
use core::time::Duration;
use std::sync::OnceLock;

use sunmt_sys::futex::{self, Scope};
use sunmt_sys::task;

/// A blocking backend for synchronization variables.
pub trait BlockStrategy: Sync {
    /// Suspends the calling context until a matching [`Self::unpark`], if
    /// `word` still holds `expected` at sleep time. Spurious returns are
    /// allowed; callers always re-check their predicate.
    ///
    /// `shared` is true for `SYNC_SHARED` variables: those must always park
    /// in the kernel so that waiters in *other processes* can be woken.
    fn park(&self, word: &AtomicU32, expected: u32, shared: bool);

    /// Like [`Self::park`], but returns (spuriously or otherwise) no later
    /// than `timeout` from now. Used by the timed primitives
    /// (`cv_timedwait`, `sema_timedp`, I/O deadlines); callers re-check
    /// both their predicate and their deadline, so the return carries no
    /// "timed out" verdict.
    ///
    /// The default is the kernel path — a futex wait with a timeout — which
    /// is correct for any backend whose `park` is a kernel block. The
    /// threads library overrides it to put unbound threads on the
    /// user-level sleep queue with a deadline instead.
    fn park_timeout(&self, word: &AtomicU32, expected: u32, shared: bool, timeout: Duration) {
        let scope = if shared {
            Scope::Shared
        } else {
            Scope::Private
        };
        // Mismatch, wake, and timeout all mean "re-check".
        let _ = futex::wait_timeout(word, expected, scope, timeout);
    }

    /// Wakes up to `n` contexts parked on `word`.
    fn unpark(&self, word: &AtomicU32, n: u32, shared: bool);

    /// Politely gives up the processor inside a spin loop.
    fn yield_now(&self);

    /// A stable identity for the current execution context, used by the
    /// `DEBUG` variant's ownership tracking. The default is the kernel
    /// task id; the threads library overrides it with the *thread* id so
    /// ownership survives an unbound thread's migration between LWPs.
    fn self_id(&self) -> u32 {
        sunmt_sys::task::gettid()
    }

    /// An opaque hint naming the LWP the caller is executing on, published
    /// by `ADAPTIVE` mutexes on acquire so waiters can ask
    /// [`Self::lwp_running`] about the holder. Zero means "no hint"; the
    /// default backend has no LWP bookkeeping, so that is all it offers.
    fn lwp_hint(&self) -> u32 {
        0
    }

    /// The caller's reader slot in a private `RwLock`, when the backend can
    /// name one that no other LWP of a pool no bigger than the processor
    /// count uses. `None` (the default, which knows no LWPs) makes the lock
    /// fall back to a per-kernel-thread index.
    fn reader_slot(&self) -> Option<usize> {
        None
    }

    /// Whether the LWP behind a [`Self::lwp_hint`] value is believed to be
    /// on a processor right now — the paper's "spin only while the owner is
    /// running" query. Must err toward `true` (spin) when it cannot tell;
    /// callers cap the spin either way.
    fn lwp_running(&self, _hint: u32) -> bool {
        true
    }

    /// Priority inheritance: pushes the calling waiter's priority onto the
    /// LWP behind `owner_hint` (the published holder of the lock the caller
    /// is about to park on), so a preempting scheduler will not keep the
    /// holder off the processor while a higher-priority waiter sleeps.
    /// Returns the priority actually pushed, or 0 if no boost was applied
    /// (the owner already ran at least that high, or the backend has no
    /// priorities — the default).
    fn pi_boost(&self, _owner_hint: u32) -> i32 {
        0
    }

    /// Strips whatever [`Self::pi_boost`] pushed onto the LWP behind
    /// `owner_hint`, returning the boost that was removed (0 = there was
    /// none). Called by the lock release path.
    fn pi_strip(&self, _owner_hint: u32) -> i32 {
        0
    }
}

/// The default strategy: block the calling LWP in the kernel.
///
/// This is the behaviour of plain LWP code with no threads library loaded —
/// the degenerate "process = address space + one LWP" case the paper
/// requires to behave like a standard UNIX process.
pub struct KernelBlock;

impl BlockStrategy for KernelBlock {
    fn park(&self, word: &AtomicU32, expected: u32, shared: bool) {
        let scope = if shared {
            Scope::Shared
        } else {
            Scope::Private
        };
        // Mismatch and wake both mean "re-check"; real errors here are
        // programming bugs (bad pointer), which mmap'd atomics preclude.
        let _ = futex::wait(word, expected, scope);
    }

    fn unpark(&self, word: &AtomicU32, n: u32, shared: bool) {
        let scope = if shared {
            Scope::Shared
        } else {
            Scope::Private
        };
        sunmt_trace::probe!(sunmt_trace::Tag::FutexWake, word.as_ptr() as usize, n);
        let _ = futex::wake(word, n, scope);
    }

    fn yield_now(&self) {
        task::sched_yield();
    }
}

static KERNEL_BLOCK: KernelBlock = KernelBlock;
static STRATEGY: OnceLock<&'static dyn BlockStrategy> = OnceLock::new();

/// Installs the process-wide blocking strategy.
///
/// Called once by the threads library when it initializes; later calls are
/// ignored (the first installation wins). Returns whether the installation
/// took effect.
pub fn install(strategy: &'static dyn BlockStrategy) -> bool {
    STRATEGY.set(strategy).is_ok()
}

/// The current strategy ([`KernelBlock`] until something is installed).
#[inline]
pub fn current() -> &'static dyn BlockStrategy {
    match STRATEGY.get() {
        Some(s) => *s,
        None => &KERNEL_BLOCK,
    }
}

/// Parks through the current strategy; see [`BlockStrategy::park`].
#[inline]
pub fn park(word: &AtomicU32, expected: u32, shared: bool) {
    if shared {
        // Shared variables always block in the kernel, regardless of the
        // installed strategy: a user-level sleep queue is invisible to the
        // other processes mapping this variable.
        KERNEL_BLOCK.park(word, expected, true);
    } else {
        current().park(word, expected, false);
    }
}

/// Parks with a deadline through the current strategy; see
/// [`BlockStrategy::park_timeout`].
#[inline]
pub fn park_timeout(word: &AtomicU32, expected: u32, shared: bool, timeout: Duration) {
    if shared {
        KERNEL_BLOCK.park_timeout(word, expected, true, timeout);
    } else {
        current().park_timeout(word, expected, false, timeout);
    }
}

/// Unparks through the current strategy; see [`BlockStrategy::unpark`].
#[inline]
pub fn unpark(word: &AtomicU32, n: u32, shared: bool) {
    if shared {
        KERNEL_BLOCK.unpark(word, n, true);
    } else {
        current().unpark(word, n, false);
    }
}

/// Yields through the current strategy.
#[inline]
pub fn yield_now() {
    current().yield_now();
}

/// The current execution context's identity (see [`BlockStrategy::self_id`]).
#[inline]
pub fn self_id() -> u32 {
    current().self_id()
}

/// The calling context's LWP hint (see [`BlockStrategy::lwp_hint`]).
#[inline]
pub fn lwp_hint() -> u32 {
    current().lwp_hint()
}

/// The caller's reader slot, if the strategy names one (see
/// [`BlockStrategy::reader_slot`]).
#[inline]
pub fn reader_slot() -> Option<usize> {
    current().reader_slot()
}

/// Hardware contexts the process may run on, clamped to 1..=64 (4 when
/// unknown). The threads library makes one run-queue shard per context and
/// a private `RwLock` one reader slot per context; both read this one
/// value, so a pool LWP's home shard always names a slot of its own.
pub fn processors() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(4, |n| n.get())
            .clamp(1, 64)
    })
}

/// Whether the hinted LWP is running (see [`BlockStrategy::lwp_running`]).
#[inline]
pub fn lwp_running(hint: u32) -> bool {
    current().lwp_running(hint)
}

/// Boosts the hinted owner's priority (see [`BlockStrategy::pi_boost`]).
#[inline]
pub fn pi_boost(owner_hint: u32) -> i32 {
    current().pi_boost(owner_hint)
}

/// Strips an inherited boost (see [`BlockStrategy::pi_strip`]).
#[inline]
pub fn pi_strip(owner_hint: u32) -> i32 {
    current().pi_strip(owner_hint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn kernel_park_returns_on_value_mismatch() {
        let w = AtomicU32::new(5);
        // Must return immediately: the word does not hold `expected`.
        park(&w, 0, false);
        park(&w, 0, true);
    }

    #[test]
    fn kernel_unpark_wakes_kernel_parker() {
        let w = Arc::new(AtomicU32::new(0));
        let w2 = Arc::clone(&w);
        let h = std::thread::spawn(move || {
            while w2.load(Ordering::Acquire) == 0 {
                park(&w2, 0, false);
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        w.store(1, Ordering::Release);
        unpark(&w, u32::MAX, false);
        h.join().unwrap();
    }
}
