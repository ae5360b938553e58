//! Futex wrappers: the kernel-level blocking primitive.
//!
//! In the paper's architecture, a thread that blocks on a synchronization
//! variable the kernel knows about (a variable in shared memory, or any
//! variable used by a bound thread) blocks *in the kernel*, suspending its
//! LWP. The futex is our kernel primitive for that: private futexes block an
//! LWP within one process, shared futexes block LWPs of different processes
//! on the same variable in a `MAP_SHARED` mapping.

use core::sync::atomic::AtomicU32;
use core::time::Duration;

use crate::errno::Errno;
use crate::syscall::{check, nr, syscall6};
use crate::time::Timespec;

const FUTEX_WAIT: usize = 0;
const FUTEX_WAKE: usize = 1;
const FUTEX_PRIVATE_FLAG: usize = 128;

/// Whether a futex word is shared between processes.
///
/// This mirrors the paper's `THREAD_SYNC_SHARED` variant bit: private
/// variables are cheaper (the kernel skips the shared-mapping lookup), shared
/// ones work across address spaces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// The word is only used by LWPs of this process.
    Private,
    /// The word may live in shared memory and be used by several processes.
    Shared,
}

impl Scope {
    #[inline]
    fn flag(self) -> usize {
        match self {
            Scope::Private => FUTEX_PRIVATE_FLAG,
            Scope::Shared => 0,
        }
    }
}

/// Blocks the calling LWP until `word` is woken, if `*word == expected`.
///
/// Returns `Ok(true)` when woken (or on a spurious wake / `EINTR`),
/// `Ok(false)` when the word's value did not match `expected` (`EAGAIN`) so
/// the caller should re-examine the variable, and an error only for
/// programming mistakes.
pub fn wait(word: &AtomicU32, expected: u32, scope: Scope) -> Result<bool, Errno> {
    // SAFETY: `word` is a valid, live 4-byte-aligned u32; FUTEX_WAIT only
    // reads it and sleeps.
    let ret = unsafe {
        syscall6(
            nr::FUTEX,
            word.as_ptr() as usize,
            FUTEX_WAIT | scope.flag(),
            expected as usize,
            0,
            0,
            0,
        )
    };
    match check(ret) {
        Ok(_) => Ok(true),
        Err(Errno::EAGAIN) => Ok(false),
        Err(Errno::EINTR) => Ok(true),
        Err(e) => Err(e),
    }
}

/// Like [`wait`] but gives up after `timeout`.
///
/// Returns `Ok(true)` when woken, `Ok(false)` on value mismatch **or**
/// timeout; callers must re-examine the protected state either way.
pub fn wait_timeout(
    word: &AtomicU32,
    expected: u32,
    scope: Scope,
    timeout: Duration,
) -> Result<bool, Errno> {
    let ts = Timespec::from_duration(timeout);
    // SAFETY: `word` is a valid, live u32 and `ts` outlives the call.
    let ret = unsafe {
        syscall6(
            nr::FUTEX,
            word.as_ptr() as usize,
            FUTEX_WAIT | scope.flag(),
            expected as usize,
            &ts as *const Timespec as usize,
            0,
            0,
        )
    };
    match check(ret) {
        Ok(_) => Ok(true),
        Err(Errno::EAGAIN) | Err(Errno::ETIMEDOUT) => Ok(false),
        Err(Errno::EINTR) => Ok(true),
        Err(e) => Err(e),
    }
}

/// Wakes up to `count` LWPs blocked on `word`; returns how many were woken.
pub fn wake(word: &AtomicU32, count: u32, scope: Scope) -> Result<usize, Errno> {
    // The kernel reads the wake count as a *signed* int: passing u32::MAX
    // verbatim would be -1 and wake a single waiter. Clamp to i32::MAX,
    // which is the kernel's own "wake everyone" spelling.
    let count = count.min(i32::MAX as u32);
    // SAFETY: `word` is a valid, live u32; FUTEX_WAKE does not dereference
    // beyond it.
    let ret = unsafe {
        syscall6(
            nr::FUTEX,
            word.as_ptr() as usize,
            FUTEX_WAKE | scope.flag(),
            count as usize,
            0,
            0,
            0,
        )
    };
    check(ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn wait_returns_false_on_value_mismatch() {
        let w = AtomicU32::new(1);
        assert_eq!(wait(&w, 0, Scope::Private), Ok(false));
        assert_eq!(wait(&w, 0, Scope::Shared), Ok(false));
    }

    #[test]
    fn wake_with_no_waiters_wakes_nobody() {
        let w = AtomicU32::new(0);
        assert_eq!(wake(&w, 1, Scope::Private), Ok(0));
    }

    #[test]
    fn wait_timeout_expires() {
        let w = AtomicU32::new(0);
        let t0 = std::time::Instant::now();
        let woken = wait_timeout(&w, 0, Scope::Private, Duration::from_millis(20)).unwrap();
        assert!(!woken);
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn wake_unblocks_a_waiter() {
        let w = Arc::new(AtomicU32::new(0));
        let w2 = Arc::clone(&w);
        let h = std::thread::spawn(move || {
            while w2.load(Ordering::Acquire) == 0 {
                wait(&w2, 0, Scope::Private).unwrap();
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        w.store(1, Ordering::Release);
        wake(&w, u32::MAX, Scope::Private).unwrap();
        h.join().unwrap();
    }
}
