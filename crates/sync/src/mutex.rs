//! Mutual-exclusion locks.
//!
//! "Mutex locks provide simple mutual exclusion. They are low overhead in
//! both space and time and are therefore suitable for high frequency usage.
//! Mutex locks are strictly bracketing in that it is an error for a thread
//! to release a lock not held by the thread."
//!
//! # Layout and variants
//!
//! A mutex is three words of state plus one reserved word: the classic
//! three-state futex lock word, the variant bits, and a holder word. The
//! variants are the paper's set — default (sleep), [`SyncType::SPIN`],
//! [`SyncType::ADAPTIVE`], [`SyncType::SHARED`] and [`SyncType::DEBUG`] —
//! and they share one uncontended path (a compare-and-swap) and one slow
//! path, `Mutex::acquire_slow`: a waiter tries the word while its
//! variant's "keep spinning?" rule says so, then announces contention and
//! sleeps. Sleep never spins, spin never sleeps, adaptive spins while the
//! holder is on a processor; nothing else differs between them.

use core::sync::atomic::{AtomicU32, Ordering};

use crate::strategy;
use crate::types::SyncType;

/// Lock word values (the classic three-state futex mutex).
const UNLOCKED: u32 = 0;
const LOCKED: u32 = 1;
const CONTENDED: u32 = 2;

/// Spin budget for the adaptive variant when no owner-LWP hint is
/// available (no threads library installed, or the `DEBUG` bit claims the
/// owner word for holder identities).
const ADAPTIVE_SPINS: u32 = 100;

/// Hard cap on the adaptive spin phase even while the owner's LWP keeps
/// reading as running — bounds the damage from stale hints and from owners
/// blocked in places the run flags cannot see (plain system calls).
const ADAPTIVE_SPIN_CAP: u32 = 4096;

/// A spin-variant waiter yields its LWP every this many iterations, so a
/// holder that shares the LWP can run.
const SPIN_YIELD_EVERY: u32 = 1024;

/// A SunOS-style mutual exclusion lock (`mutex_t`).
///
/// Four words, position independent, and valid when zeroed — it may be
/// embedded in a structure, placed in `MAP_SHARED` memory, or stored in a
/// file record (the paper's database example) when initialized with
/// [`SyncType::SHARED`].
///
/// The uncontended paths are a single compare-and-swap in user mode; the
/// kernel is entered only to sleep or to wake a sleeper.
#[repr(C)]
#[derive(Debug, Default)]
pub struct Mutex {
    word: AtomicU32,
    kind: AtomicU32,
    /// Holder identity (zero = untracked/unheld). The `DEBUG` variant
    /// stores the holder's thread id here; otherwise the `ADAPTIVE` variant
    /// stores the holder's LWP hint so waiters can ask the blocking
    /// strategy whether the owner is still on a processor. When both bits
    /// are set, `DEBUG` wins and the adaptive path falls back to a fixed
    /// spin budget.
    owner: AtomicU32,
    /// Never read or written: keeps the variable at four words, so records
    /// in mapped files and shared segments keep their layout.
    _reserved: u32,
}

impl Mutex {
    /// Creates a mutex of the given variant, unlocked.
    pub const fn new(kind: SyncType) -> Mutex {
        Mutex {
            word: AtomicU32::new(UNLOCKED),
            kind: AtomicU32::new(kind.0),
            owner: AtomicU32::new(0),
            _reserved: 0,
        }
    }

    /// `mutex_init()`: (re)initializes the variable to the given variant.
    ///
    /// Must not be called while any thread holds or waits on the lock.
    pub fn init(&self, kind: SyncType) {
        self.word.store(UNLOCKED, Ordering::Release);
        self.kind.store(kind.0, Ordering::Release);
        self.owner.store(0, Ordering::Release);
    }

    /// `mutex_destroy()`: asserts the lock is unheld and scrubs it back to
    /// the zeroed (default-variant, unlocked) state.
    ///
    /// # Panics
    ///
    /// Panics when the lock is still held — destroying a held mutex is the
    /// bracketing error SunOS documents as undefined; here it is caught in
    /// every variant.
    pub fn destroy(&self) {
        assert!(!self.is_locked(), "mutex_destroy of a held mutex");
        self.init(SyncType::DEFAULT);
    }

    #[inline]
    fn kind(&self) -> SyncType {
        SyncType(self.kind.load(Ordering::Relaxed))
    }

    /// The lock's stat identity: the word address, which is also what the
    /// futex sleeps on and what the trace probes report.
    #[inline]
    fn site(&self) -> usize {
        &self.word as *const _ as usize
    }

    /// `mutex_enter()`: acquires the lock, blocking while it is held.
    ///
    /// # Panics
    ///
    /// The `DEBUG` variant panics on recursive entry by the holder; other
    /// variants deadlock, as on SunOS.
    #[inline]
    pub fn enter(&self) {
        let kind = self.kind();
        if kind.is_debug() {
            self.assert_not_holder();
        }
        self.acquire(kind);
    }

    /// The one acquire path: a compare-and-swap to `LOCKED`, the shared
    /// slow path when that fails, then the holder word.
    #[inline]
    fn acquire(&self, kind: SyncType) {
        if self
            .word
            .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            if sunmt_stat::enabled() {
                sunmt_stat::lock::acquired(self.site());
            }
        } else {
            self.acquire_slow(kind);
        }
        self.publish_owner(kind);
    }

    /// Records the new holder: its thread id under `DEBUG`, else under
    /// `ADAPTIVE` the LWP it runs on ("the information as to whether the
    /// owner of a lock is running is maintained by the kernel"; here the
    /// holder volunteers it at acquire time).
    #[inline]
    fn publish_owner(&self, kind: SyncType) {
        if kind.is_debug() {
            self.owner.store(strategy::self_id(), Ordering::Release);
        } else if kind.is_adaptive() {
            self.owner.store(strategy::lwp_hint(), Ordering::Release);
        }
    }

    #[cold]
    fn assert_not_holder(&self) {
        assert_ne!(
            self.owner.load(Ordering::Acquire),
            strategy::self_id(),
            "DEBUG mutex: recursive mutex_enter by the holder"
        );
    }

    /// Whether a waiter that has spun `spins` times without getting the
    /// lock should try again before sleeping — the only point at which the
    /// variants differ.
    fn keep_spinning(&self, kind: SyncType, spins: u32) -> bool {
        if kind.is_spin() {
            // Spin variant: never sleep.
            if spins % SPIN_YIELD_EVERY == 0 {
                strategy::yield_now();
            }
            true
        } else if !kind.is_adaptive() {
            false
        } else if kind.is_debug() {
            // `DEBUG` claims the owner word for holder identities, so
            // there is no LWP hint to consult.
            spins < ADAPTIVE_SPINS
        } else {
            // Adaptive variant, per the paper: spin while the holder is
            // running on another LWP (it is mid-critical-section and will
            // release soon), sleep as soon as it is not (it cannot make
            // progress, so spinning is pure waste).
            spins < ADAPTIVE_SPIN_CAP && strategy::lwp_running(self.owner.load(Ordering::Acquire))
        }
    }

    /// The contended acquire of every variant. While spinning, the word is
    /// taken as `LOCKED`; once the waiter has given up spinning it swaps in
    /// `CONTENDED` — so the releaser knows to wake it — and sleeps until
    /// the swap finds the word unlocked.
    #[cold]
    fn acquire_slow(&self, kind: SyncType) {
        sunmt_trace::probe!(sunmt_trace::Tag::MutexBlock, self.site(), kind.0);
        // Block time runs from here to the eventual acquire; `t0 == 0`
        // (stats off) makes every downstream stat call a no-op.
        let t0 = sunmt_stat::lock::slow_begin(self.site());
        let pi = kind.is_adaptive() && !kind.is_debug();
        let mut spinning = kind.is_spin() || kind.is_adaptive();
        let mut spins = 0u32;
        loop {
            if spinning {
                if self.word.load(Ordering::Relaxed) == UNLOCKED
                    && self
                        .word
                        .compare_exchange_weak(
                            UNLOCKED,
                            LOCKED,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    break;
                }
                core::hint::spin_loop();
                spins += 1;
                spinning = self.keep_spinning(kind, spins);
                continue;
            }
            if self.word.swap(CONTENDED, Ordering::Acquire) == UNLOCKED {
                break;
            }
            if sunmt_stat::enabled() {
                sunmt_stat::lock::parked(self.site());
            }
            if pi {
                // Priority inheritance: before sleeping, push our priority
                // onto the LWP the recorded holder runs on, so a preempting
                // scheduler keeps the critical section on its processor
                // instead of starving it below us. The hint is re-read every
                // lap — the lock may have changed hands while we slept — and
                // the release path strips the boost.
                let pushed = strategy::pi_boost(self.owner.load(Ordering::Acquire));
                if pushed > 0 {
                    sunmt_trace::probe!(sunmt_trace::Tag::PiBoost, self.site(), pushed);
                }
            }
            strategy::park(&self.word, CONTENDED, kind.is_shared());
        }
        if spins > 0 {
            sunmt_trace::probe!(sunmt_trace::Tag::MutexSpin, self.site(), spins);
            sunmt_stat::lock::spun(self.site(), u64::from(spins), spinning);
        }
        sunmt_stat::lock::acquired_slow(self.site(), t0);
    }

    /// `mutex_tryenter()`: acquires the lock only if that does not require
    /// blocking; returns whether it was acquired.
    ///
    /// "Can be used to avoid deadlock in operations that would normally
    /// violate the lock hierarchy."
    #[inline]
    pub fn try_enter(&self) -> bool {
        let ok = self
            .word
            .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if ok {
            self.publish_owner(self.kind());
            if sunmt_stat::enabled() {
                sunmt_stat::lock::acquired(self.site());
            }
        }
        ok
    }

    /// `mutex_exit()`: releases the lock, waking one waiter if any.
    ///
    /// Releasing a mutex the caller does not hold is a logic error (the
    /// locks are "strictly bracketing"); debug builds detect release of an
    /// unlocked mutex, and the `DEBUG` variant panics on release by a
    /// non-holder in any build.
    #[inline]
    pub fn exit(&self) {
        let kind = self.kind();
        // Close the hold interval while still the holder (the site's
        // hold clock is single-writer only under the lock's exclusion).
        if sunmt_stat::enabled() {
            sunmt_stat::lock::released(self.site());
        }
        if kind.is_debug() {
            let me = strategy::self_id();
            assert_eq!(
                self.owner.load(Ordering::Acquire),
                me,
                "DEBUG mutex: mutex_exit by a non-holder"
            );
            self.owner.store(0, Ordering::Release);
        } else if kind.is_adaptive() {
            // Retract the hint *before* releasing the word: a spinner must
            // never keep spinning on our hint after the next holder has
            // taken over. A momentary zero hint reads as "running", which
            // is the conservative direction. Any priority-inheritance boost
            // waiters pushed onto that LWP dies with the critical section.
            let stripped = strategy::pi_strip(self.owner.swap(0, Ordering::AcqRel));
            if stripped > 0 {
                sunmt_trace::probe!(sunmt_trace::Tag::PiStrip, self.site(), stripped);
            }
        }
        let prev = self.word.swap(UNLOCKED, Ordering::Release);
        debug_assert_ne!(prev, UNLOCKED, "mutex_exit of an unheld mutex");
        if prev == CONTENDED {
            strategy::unpark(&self.word, 1, kind.is_shared());
        }
    }

    /// Runs `f` with the lock held (RAII convenience over enter/exit).
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.enter();
        let guard = ExitOnDrop(self);
        let r = f();
        drop(guard);
        r
    }

    /// Whether the lock is currently held by someone (a racy snapshot, for
    /// assertions and tests only).
    pub fn is_locked(&self) -> bool {
        self.word.load(Ordering::Relaxed) != UNLOCKED
    }
}

struct ExitOnDrop<'a>(&'a Mutex);

impl Drop for ExitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zeroed_bytes_are_a_valid_unlocked_mutex() {
        // The paper's "allocated as zero may be used immediately" rule.
        assert_eq!(core::mem::size_of::<Mutex>(), 16);
        let zeroed = [0u32; 4];
        // SAFETY: Mutex is repr(C) over four 32-bit words, three of them
        // atomics; all-zero is the documented valid default state.
        let m: &Mutex = unsafe { &*(zeroed.as_ptr() as *const Mutex) };
        assert!(!m.is_locked());
        assert!(m.try_enter());
        assert!(!m.try_enter());
        m.exit();
    }

    #[test]
    fn enter_exit_round_trip() {
        let m = Mutex::new(SyncType::DEFAULT);
        m.enter();
        assert!(m.is_locked());
        m.exit();
        assert!(!m.is_locked());
    }

    #[test]
    fn try_enter_fails_when_held() {
        let m = Mutex::new(SyncType::DEFAULT);
        m.enter();
        assert!(!m.try_enter());
        m.exit();
        assert!(m.try_enter());
        m.exit();
    }

    fn hammer(kind: SyncType) {
        const LWPS: usize = 4;
        const ITERS: usize = 10_000;
        struct Shared(std::cell::UnsafeCell<usize>);
        // SAFETY: The cell is only accessed under the mutex being tested.
        unsafe impl Sync for Shared {}
        let m = Arc::new(Mutex::new(kind));
        let counter = Arc::new(Shared(std::cell::UnsafeCell::new(0usize)));
        let mut handles = Vec::new();
        for _ in 0..LWPS {
            let m = Arc::clone(&m);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    m.enter();
                    // SAFETY: Exclusive by mutual exclusion.
                    unsafe { *c.0.get() += 1 };
                    m.exit();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: All writers joined.
        assert_eq!(unsafe { *counter.0.get() }, LWPS * ITERS);
    }

    #[test]
    fn mutual_exclusion_default_variant() {
        hammer(SyncType::DEFAULT);
    }

    #[test]
    fn mutual_exclusion_spin_variant() {
        hammer(SyncType::SPIN);
    }

    #[test]
    fn mutual_exclusion_adaptive_variant() {
        hammer(SyncType::ADAPTIVE);
    }

    #[test]
    fn mutual_exclusion_adaptive_debug_variant() {
        hammer(SyncType::ADAPTIVE | SyncType::DEBUG);
    }

    #[test]
    fn destroy_scrubs_back_to_default() {
        let m = Mutex::new(SyncType::ADAPTIVE | SyncType::DEBUG);
        m.enter();
        m.exit();
        m.destroy();
        assert!(!m.is_locked());
        // After destroy the variable is the zeroed default again.
        m.init(SyncType::DEFAULT);
        m.enter();
        m.exit();
    }

    #[test]
    #[should_panic(expected = "mutex_destroy of a held mutex")]
    fn destroy_of_held_mutex_panics() {
        let m = Mutex::new(SyncType::DEFAULT);
        m.enter();
        m.destroy();
    }

    #[test]
    fn with_releases_on_exit() {
        let m = Mutex::new(SyncType::DEFAULT);
        let v = m.with(|| 41) + 1;
        assert_eq!(v, 42);
        assert!(!m.is_locked());
    }

    #[test]
    fn debug_variant_allows_correct_bracketing() {
        let m = Mutex::new(SyncType::DEBUG);
        m.enter();
        m.exit();
        assert!(m.try_enter());
        m.exit();
        hammer(SyncType::DEBUG);
    }

    #[test]
    #[should_panic(expected = "recursive mutex_enter")]
    fn debug_variant_panics_on_recursive_enter() {
        let m = Mutex::new(SyncType::DEBUG);
        m.enter();
        m.enter();
    }

    #[test]
    #[should_panic(expected = "mutex_exit by a non-holder")]
    fn debug_variant_panics_on_foreign_exit() {
        let m = Arc::new(Mutex::new(SyncType::DEBUG));
        m.enter();
        let m2 = Arc::clone(&m);
        // A different LWP releasing someone else's lock is caught.
        let result = std::thread::spawn(move || m2.exit()).join();
        // Re-panic in this thread so should_panic observes it.
        if let Err(p) = result {
            std::panic::resume_unwind(p);
        }
    }
}
