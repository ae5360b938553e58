//! Counting semaphores.
//!
//! "The semaphore synchronization facilities provide classic counting
//! semaphores. They are not as efficient as mutex locks, but they need not
//! be bracketed ... They also contain state so they may be used
//! asynchronously without acquiring a mutex as required by condition
//! variables."

use core::sync::atomic::{AtomicU32, Ordering};

use crate::strategy;
use crate::types::SyncType;

/// A SunOS-style counting semaphore (`sema_t`).
///
/// Zeroed memory is a valid semaphore with count 0 in the default variant.
/// This is the primitive used by the paper's Figure 6 synchronization-time
/// measurement (two threads ping-ponging on two semaphores).
#[repr(C)]
#[derive(Debug, Default)]
pub struct Sema {
    count: AtomicU32,
    waiters: AtomicU32,
    kind: AtomicU32,
}

impl Sema {
    /// Creates a semaphore with the given initial count and variant.
    pub const fn new(count: u32, kind: SyncType) -> Sema {
        Sema {
            count: AtomicU32::new(count),
            waiters: AtomicU32::new(0),
            kind: AtomicU32::new(kind.0),
        }
    }

    /// `sema_init()`: (re)initializes count and variant.
    ///
    /// Must not be called while any thread waits on the semaphore.
    pub fn init(&self, count: u32, kind: SyncType) {
        self.count.store(count, Ordering::Release);
        self.waiters.store(0, Ordering::Release);
        self.kind.store(kind.0, Ordering::Release);
    }

    #[inline]
    fn shared(&self) -> bool {
        SyncType(self.kind.load(Ordering::Relaxed)).is_shared()
    }

    #[inline]
    fn try_dec(&self) -> bool {
        let mut c = self.count.load(Ordering::Relaxed);
        while c > 0 {
            match self
                .count
                .compare_exchange_weak(c, c - 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(actual) => c = actual,
            }
        }
        false
    }

    /// `sema_p()`: decrements the semaphore, blocking while it is zero.
    pub fn p(&self) {
        if self.try_dec() {
            return;
        }
        let shared = self.shared();
        let site = &self.count as *const _ as usize;
        let t0 = sunmt_stat::lock::slow_begin(site);
        self.waiters.fetch_add(1, Ordering::Relaxed);
        loop {
            if self.try_dec() {
                break;
            }
            sunmt_trace::probe!(
                sunmt_trace::Tag::SemaBlock,
                &self.count as *const _ as usize
            );
            if sunmt_trace::counting() {
                sunmt_stat::lock::parked(site);
            }
            strategy::park(&self.count, 0, shared);
        }
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        sunmt_stat::lock::block_end(site, t0);
    }

    /// `sema_timedp()`: like [`Self::p`], but gives up after `timeout`.
    ///
    /// Returns whether the decrement happened.
    pub fn timed_p(&self, timeout: core::time::Duration) -> bool {
        if self.try_dec() {
            return true;
        }
        let deadline = sunmt_sys::time::monotonic_now().saturating_add(timeout);
        let shared = self.shared();
        let site = &self.count as *const _ as usize;
        let t0 = sunmt_stat::lock::slow_begin(site);
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let got = loop {
            if self.try_dec() {
                break true;
            }
            let now = sunmt_sys::time::monotonic_now();
            if now >= deadline {
                break false;
            }
            sunmt_trace::probe!(
                sunmt_trace::Tag::SemaBlock,
                &self.count as *const _ as usize
            );
            if sunmt_trace::counting() {
                sunmt_stat::lock::parked(site);
            }
            strategy::park_timeout(&self.count, 0, shared, deadline - now);
        };
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        sunmt_stat::lock::block_end(site, t0);
        got
    }

    /// `sema_tryp()`: decrements only if blocking is not required; returns
    /// whether the decrement happened.
    pub fn try_p(&self) -> bool {
        self.try_dec()
    }

    /// `sema_v()`: increments the semaphore, waking one waiter if any.
    ///
    /// Safe to call from contexts that must not block (the paper allows
    /// semaphores "for asynchronous event notification (e.g. in signal
    /// handlers)").
    pub fn v(&self) {
        self.count.fetch_add(1, Ordering::Release);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            strategy::unpark(&self.count, 1, self.shared());
        }
    }

    /// The current count (racy snapshot, for tests and diagnostics).
    pub fn count(&self) -> u32 {
        self.count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn zeroed_semaphore_has_count_zero() {
        let zeroed = [0u8; core::mem::size_of::<Sema>()];
        // SAFETY: All-zero is the documented valid default state.
        let s: &Sema = unsafe { &*(zeroed.as_ptr() as *const Sema) };
        assert_eq!(s.count(), 0);
        assert!(!s.try_p());
        s.v();
        assert!(s.try_p());
    }

    #[test]
    fn p_after_v_does_not_block() {
        let s = Sema::new(0, SyncType::DEFAULT);
        s.v();
        s.v();
        s.p();
        s.p();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn try_p_counts_exactly() {
        let s = Sema::new(3, SyncType::DEFAULT);
        assert!(s.try_p());
        assert!(s.try_p());
        assert!(s.try_p());
        assert!(!s.try_p());
    }

    #[test]
    fn v_unblocks_p() {
        let s = Arc::new(Sema::new(0, SyncType::DEFAULT));
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || s2.p());
        std::thread::sleep(Duration::from_millis(10));
        s.v();
        h.join().unwrap();
    }

    #[test]
    fn timed_p_times_out_on_empty_semaphore() {
        let s = Sema::new(0, SyncType::DEFAULT);
        let t0 = sunmt_sys::time::monotonic_now();
        assert!(!s.timed_p(Duration::from_millis(30)));
        let waited = sunmt_sys::time::monotonic_now() - t0;
        assert!(
            waited >= Duration::from_millis(25),
            "returned after {waited:?}"
        );
        // The failed acquire must not consume a later token.
        s.v();
        assert!(s.timed_p(Duration::from_secs(1)));
    }

    #[test]
    fn timed_p_succeeds_when_v_arrives() {
        let s = Arc::new(Sema::new(0, SyncType::DEFAULT));
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            s2.v();
        });
        assert!(s.timed_p(Duration::from_secs(10)));
        h.join().unwrap();
    }

    #[test]
    fn ping_pong_paper_figure6_pattern() {
        // The exact structure of the paper's synchronization measurement.
        let s1 = Arc::new(Sema::new(0, SyncType::DEFAULT));
        let s2 = Arc::new(Sema::new(0, SyncType::DEFAULT));
        let (a1, a2) = (Arc::clone(&s1), Arc::clone(&s2));
        let h = std::thread::spawn(move || {
            for _ in 0..1000 {
                a1.p();
                a2.v();
            }
        });
        for _ in 0..1000 {
            s1.v();
            s2.p();
        }
        h.join().unwrap();
    }

    #[test]
    fn tokens_are_neither_created_nor_lost_under_contention() {
        const LWPS: usize = 4;
        const ROUNDS: usize = 5_000;
        let s = Arc::new(Sema::new(2, SyncType::DEFAULT));
        let in_section = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..LWPS {
            let s = Arc::clone(&s);
            let in_section = Arc::clone(&in_section);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    s.p();
                    let now = in_section.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= 2, "semaphore admitted {now} > 2 holders");
                    in_section.fetch_sub(1, Ordering::SeqCst);
                    s.v();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.count(), 2);
    }
}
