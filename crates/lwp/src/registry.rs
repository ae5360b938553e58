//! The process-wide LWP registry and the `SIGWAITING` mechanism.
//!
//! "A new signal, `SIGWAITING`, is sent to the process when all its LWPs are
//! waiting for some indefinite, external event. ... The threads package can
//! use the receipt of `SIGWAITING` to cause extra LWPs to be created as
//! required to avoid deadlock."
//!
//! Our kernel substrate (the host) does not send such a signal, so the
//! registry reproduces the rule: every LWP announces when it enters and
//! leaves an indefinite wait, and the moment the *last* non-waiting LWP
//! blocks, the registered `SIGWAITING` hook fires.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Statistics snapshot of a registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LwpCounts {
    /// LWPs currently registered (alive).
    pub total: usize,
    /// LWPs currently inside an indefinite-wait region.
    pub waiting: usize,
}

/// Locks `m`, ignoring poison: a hook that panicked has already run, and
/// the slot it lives in stays whole, so a poisoned lock must not turn every
/// later all-LWPs-waiting event into a panic as well.
fn unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tracks the LWPs of one "process" and detects the all-waiting condition.
///
/// The real process uses the [`global`] instance; tests may build private
/// ones for deterministic assertions.
#[derive(Default)]
pub struct LwpRegistry {
    total: AtomicUsize,
    waiting: AtomicUsize,
    sigwaiting_sent: AtomicUsize,
    hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl LwpRegistry {
    /// Creates an empty registry.
    pub fn new() -> LwpRegistry {
        LwpRegistry::default()
    }

    /// Registers one more LWP.
    pub fn lwp_started(&self) {
        self.total.fetch_add(1, Ordering::SeqCst);
    }

    /// Unregisters an exiting LWP.
    pub fn lwp_exited(&self) {
        self.total.fetch_sub(1, Ordering::SeqCst);
    }

    /// Installs the `SIGWAITING` handler.
    ///
    /// The threads library installs its pool-growing handler here. "The
    /// default handling for SIGWAITING is to ignore it" — with no hook
    /// installed, the condition is merely counted.
    pub fn set_sigwaiting_hook(&self, f: impl Fn() + Send + Sync + 'static) {
        *unpoisoned(&self.hook) = Some(Box::new(f));
    }

    /// Removes the hook (used by ablations comparing SIGWAITING on/off).
    pub fn clear_sigwaiting_hook(&self) {
        *unpoisoned(&self.hook) = None;
    }

    /// How many times the all-LWPs-waiting condition has occurred.
    pub fn sigwaiting_count(&self) -> usize {
        self.sigwaiting_sent.load(Ordering::SeqCst)
    }

    /// Current LWP counts.
    pub fn counts(&self) -> LwpCounts {
        LwpCounts {
            total: self.total.load(Ordering::SeqCst),
            waiting: self.waiting.load(Ordering::SeqCst),
        }
    }

    /// Marks the calling LWP as blocked in an indefinite, external wait for
    /// the duration of `f` — the paper's `poll()`-like case.
    ///
    /// If this makes *every* registered LWP waiting, the `SIGWAITING` hook
    /// runs (on this LWP, before it commits to the wait — the natural place,
    /// since the hook's job is to add an LWP so the process keeps making
    /// progress).
    pub fn indefinite_wait<R>(&self, f: impl FnOnce() -> R) -> R {
        let waiting = self.waiting.fetch_add(1, Ordering::SeqCst) + 1;
        if waiting >= self.total.load(Ordering::SeqCst) {
            self.sigwaiting_sent.fetch_add(1, Ordering::SeqCst);
            let hook = unpoisoned(&self.hook);
            if let Some(h) = hook.as_ref() {
                h();
            }
        }
        // Run the blocking operation regardless; a panic inside must not
        // corrupt the waiting count.
        struct Unmark<'a>(&'a AtomicUsize);
        impl Drop for Unmark<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let unmark = Unmark(&self.waiting);
        let out = f();
        drop(unmark);
        out
    }
}

static GLOBAL: OnceLock<LwpRegistry> = OnceLock::new();

/// The registry of this process's LWPs.
pub fn global() -> &'static LwpRegistry {
    GLOBAL.get_or_init(LwpRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn indefinite_wait_tracks_counts() {
        let r = LwpRegistry::new();
        r.lwp_started();
        r.lwp_started();
        r.indefinite_wait(|| {
            assert_eq!(
                r.counts(),
                LwpCounts {
                    total: 2,
                    waiting: 1
                }
            );
        });
        assert_eq!(
            r.counts(),
            LwpCounts {
                total: 2,
                waiting: 0
            }
        );
        assert_eq!(r.sigwaiting_count(), 0, "1 of 2 waiting is not SIGWAITING");
    }

    #[test]
    fn hook_fires_only_when_all_lwps_wait() {
        let r = Arc::new(LwpRegistry::new());
        r.lwp_started();
        r.lwp_started();
        let fired = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&fired);
        r.set_sigwaiting_hook(move || f2.store(true, Ordering::SeqCst));

        // One of two waiting: no SIGWAITING.
        r.indefinite_wait(|| ());
        assert!(!fired.load(Ordering::SeqCst));

        // Both waiting: SIGWAITING fires on the second.
        let r2 = Arc::clone(&r);
        r.indefinite_wait(|| {
            r2.indefinite_wait(|| ());
        });
        assert!(fired.load(Ordering::SeqCst));
        assert_eq!(r.sigwaiting_count(), 1);
    }

    #[test]
    fn cleared_hook_still_counts() {
        let r = LwpRegistry::new();
        r.lwp_started();
        r.set_sigwaiting_hook(|| panic!("must not run"));
        r.clear_sigwaiting_hook();
        r.indefinite_wait(|| ());
        assert_eq!(r.sigwaiting_count(), 1);
    }

    #[test]
    fn waiting_count_restored_on_panic() {
        let r = LwpRegistry::new();
        r.lwp_started();
        r.lwp_started();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.indefinite_wait(|| panic!("inside wait"));
        }));
        assert!(result.is_err());
        assert_eq!(r.counts().waiting, 0);
    }

    #[test]
    fn a_panicking_hook_does_not_wedge_the_registry() {
        let r = LwpRegistry::new();
        r.lwp_started();
        r.set_sigwaiting_hook(|| panic!("hook"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.indefinite_wait(|| ());
        }));
        assert!(result.is_err());
        r.clear_sigwaiting_hook();
        r.indefinite_wait(|| ());
        assert_eq!(r.sigwaiting_count(), 2);
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const _;
        let b = global() as *const _;
        assert_eq!(a, b);
    }
}
