//! The process-wide LWP registry: how many LWPs are alive.
//!
//! Every [`crate::Lwp`] and every adopted host thread registers here for
//! its lifetime, so [`LwpRegistry::counts`] reads the process's live LWP
//! count without asking the kernel. The paper's `SIGWAITING` ("sent to the
//! process when all its LWPs are waiting for some indefinite, external
//! event") is not detected here: the threads library counts its own pool
//! LWPs in blocking regions and grows the pool itself (`sunmt::blocking`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Statistics snapshot of a registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LwpCounts {
    /// LWPs currently registered (alive).
    pub total: usize,
}

/// Counts the live LWPs of one "process".
///
/// The real process uses the [`global`] instance; tests may build private
/// ones for deterministic assertions.
#[derive(Default)]
pub struct LwpRegistry {
    total: AtomicUsize,
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

    /// Current LWP counts.
    pub fn counts(&self) -> LwpCounts {
        LwpCounts {
            total: self.total.load(Ordering::SeqCst),
        }
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

    #[test]
    fn counts_track_started_and_exited_lwps() {
        let r = LwpRegistry::new();
        r.lwp_started();
        r.lwp_started();
        assert_eq!(r.counts(), LwpCounts { total: 2 });
        r.lwp_exited();
        assert_eq!(r.counts(), LwpCounts { total: 1 });
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const _;
        let b = global() as *const _;
        assert_eq!(a, b);
    }
}
