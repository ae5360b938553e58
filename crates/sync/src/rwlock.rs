//! Multiple-readers, single-writer locks.
//!
//! "Multiple readers, single writer locks allow many threads simultaneous
//! read-only access to an object ... It allows only one thread to access an
//! object for writing at any one time, and excludes any readers. A good
//! candidate ... is an object that is searched more frequently than it is
//! changed."

use core::sync::atomic::{AtomicU32, Ordering};

use crate::strategy;
use crate::types::SyncType;

/// Whether `rw_enter` acquires for reading or writing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RwType {
    /// `RW_READER`: "Acquire a readers lock."
    Reader,
    /// `RW_WRITER`: "Acquire a writer lock."
    Writer,
}

const WRITER: u32 = 1 << 31;
const UPGRADE: u32 = 1 << 30;
const COUNT_MASK: u32 = UPGRADE - 1;

/// A SunOS-style readers/writer lock (`rwlock_t`).
///
/// Zeroed memory is a valid, unheld lock in the default variant. Waiting
/// writers take priority over new readers, which both prevents writer
/// starvation and yields the paper's `rw_downgrade` semantics ("Any waiting
/// writers remain waiting. If there are no waiting writers it wakes up any
/// pending readers") directly.
#[repr(C)]
#[derive(Debug, Default)]
pub struct RwLock {
    /// Bit 31: writer held. Bit 30: an upgrade is in progress. Low bits:
    /// reader count (the upgrader's own hold included).
    state: AtomicU32,
    /// Number of writers blocked in `enter(Writer)`.
    wrwait: AtomicU32,
    /// Number of readers blocked in `enter(Reader)`.
    rdwait: AtomicU32,
    /// Wake sequence readers park on.
    rdseq: AtomicU32,
    /// Wake sequence writers and upgraders park on.
    wrseq: AtomicU32,
    kind: AtomicU32,
}

impl RwLock {
    /// Creates an unheld lock of the given variant.
    pub const fn new(kind: SyncType) -> RwLock {
        RwLock {
            state: AtomicU32::new(0),
            wrwait: AtomicU32::new(0),
            rdwait: AtomicU32::new(0),
            rdseq: AtomicU32::new(0),
            wrseq: AtomicU32::new(0),
            kind: AtomicU32::new(kind.0),
        }
    }

    /// `rw_init()`: (re)initializes the variable to the given variant.
    ///
    /// Must not be called while the lock is held or waited on.
    pub fn init(&self, kind: SyncType) {
        self.state.store(0, Ordering::Release);
        self.wrwait.store(0, Ordering::Release);
        self.rdwait.store(0, Ordering::Release);
        self.rdseq.store(0, Ordering::Release);
        self.wrseq.store(0, Ordering::Release);
        self.kind.store(kind.0, Ordering::Release);
    }

    #[inline]
    fn shared(&self) -> bool {
        SyncType(self.kind.load(Ordering::Relaxed)).is_shared()
    }

    /// Stat identity: the state word's address (what RwBlock traces too).
    #[inline]
    fn site(&self) -> usize {
        &self.state as *const _ as usize
    }

    #[inline]
    fn reader_may_enter(&self, s: u32) -> bool {
        s & (WRITER | UPGRADE) == 0 && self.wrwait.load(Ordering::Relaxed) == 0
    }

    /// `rw_enter()`: acquires a readers or writer lock, blocking as needed.
    pub fn enter(&self, t: RwType) {
        match t {
            RwType::Reader => self.enter_reader(),
            RwType::Writer => self.enter_writer(),
        }
    }

    fn enter_reader(&self) {
        let mut t0 = 0u64;
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if self.reader_may_enter(s) {
                if self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    sunmt_stat::lock::block_end(self.site(), t0);
                    return;
                }
                continue;
            }
            // Sample the wake sequence, then re-check: a release between the
            // check above and the park bumps `rdseq`, so the park returns
            // immediately on value mismatch instead of sleeping forever.
            self.rdwait.fetch_add(1, Ordering::SeqCst);
            let seq = self.rdseq.load(Ordering::SeqCst);
            if self.reader_may_enter(self.state.load(Ordering::Relaxed)) {
                self.rdwait.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            sunmt_trace::probe!(
                sunmt_trace::Tag::RwBlock,
                &self.state as *const _ as usize,
                0u64 // reader
            );
            if sunmt_stat::enabled() {
                if t0 == 0 {
                    t0 = sunmt_stat::lock::slow_begin(self.site());
                }
                sunmt_stat::lock::parked(self.site());
            }
            strategy::park(&self.rdseq, seq, self.shared());
            self.rdwait.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn enter_writer(&self) {
        // Waiter half of the handshake with `exit` (which clears `state`,
        // then reads `wrwait`): announce in `wrwait`, then read `state`.
        // All four accesses are `SeqCst`, so either the releaser sees the
        // announcement and wakes `wrseq`, or this writer sees the cleared
        // state and never parks.
        self.wrwait.fetch_add(1, Ordering::SeqCst);
        let mut t0 = 0u64;
        loop {
            if self
                .state
                .compare_exchange(0, WRITER, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.wrwait.fetch_sub(1, Ordering::Relaxed);
                sunmt_stat::lock::block_end(self.site(), t0);
                return;
            }
            let seq = self.wrseq.load(Ordering::Acquire);
            if self.state.load(Ordering::SeqCst) == 0 {
                continue;
            }
            sunmt_trace::probe!(
                sunmt_trace::Tag::RwBlock,
                &self.state as *const _ as usize,
                1u64 // writer
            );
            if sunmt_stat::enabled() {
                if t0 == 0 {
                    t0 = sunmt_stat::lock::slow_begin(self.site());
                }
                sunmt_stat::lock::parked(self.site());
            }
            strategy::park(&self.wrseq, seq, self.shared());
        }
    }

    /// `rw_tryenter()`: acquires the lock "if doing so would not require
    /// blocking"; returns whether it was acquired.
    pub fn try_enter(&self, t: RwType) -> bool {
        match t {
            RwType::Reader => loop {
                let s = self.state.load(Ordering::Relaxed);
                if !self.reader_may_enter(s) {
                    return false;
                }
                if self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return true;
                }
            },
            RwType::Writer => self
                .state
                .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
        }
    }

    /// `rw_exit()`: releases a readers or writer lock.
    pub fn exit(&self) {
        let shared = self.shared();
        let s = self.state.load(Ordering::Relaxed);
        if s & WRITER != 0 {
            debug_assert_eq!(s, WRITER, "writer hold must exclude all readers");
            // A swap, not a store: the release must be ordered before the
            // `wrwait` read below (see `enter_writer`), and a plain store
            // may still sit in the store buffer when that load runs.
            self.state.swap(0, Ordering::SeqCst);
            self.wake_after_release(shared);
        } else {
            debug_assert_ne!(s & COUNT_MASK, 0, "rw_exit with no readers");
            let prev = self.state.fetch_sub(1, Ordering::SeqCst);
            let remaining = prev - 1;
            if remaining & COUNT_MASK == 0 {
                // Last reader gone; writers (if any) can now enter.
                if self.wrwait.load(Ordering::SeqCst) > 0 {
                    self.wrseq.fetch_add(1, Ordering::Release);
                    strategy::unpark(&self.wrseq, 1, shared);
                }
            } else if remaining == UPGRADE | 1 {
                // Only the upgrader's own hold remains: let it convert. Any
                // ordinary waiting writers woken alongside re-check and
                // park again.
                self.wrseq.fetch_add(1, Ordering::Release);
                strategy::unpark(&self.wrseq, u32::MAX, shared);
            }
        }
    }

    fn wake_after_release(&self, shared: bool) {
        if self.wrwait.load(Ordering::SeqCst) > 0 {
            self.wrseq.fetch_add(1, Ordering::Release);
            strategy::unpark(&self.wrseq, 1, shared);
        } else {
            self.rdseq.fetch_add(1, Ordering::SeqCst);
            if self.rdwait.load(Ordering::SeqCst) > 0 {
                strategy::unpark(&self.rdseq, u32::MAX, shared);
            }
        }
    }

    /// `rw_downgrade()`: atomically converts the caller's writer lock into a
    /// reader lock.
    ///
    /// "Any waiting writers remain waiting. If there are no waiting writers
    /// it wakes up any pending readers."
    pub fn downgrade(&self) {
        let prev = self.state.swap(1, Ordering::Release);
        debug_assert_eq!(prev, WRITER, "rw_downgrade without the writer lock");
        if self.wrwait.load(Ordering::Relaxed) == 0 {
            self.rdseq.fetch_add(1, Ordering::SeqCst);
            if self.rdwait.load(Ordering::SeqCst) > 0 {
                strategy::unpark(&self.rdseq, u32::MAX, self.shared());
            }
        }
    }

    /// `rw_tryupgrade()`: attempts to atomically convert the caller's reader
    /// lock into a writer lock.
    ///
    /// "If there is another `rw_tryupgrade()` in progress or there are any
    /// writers waiting, it returns a failure indication" — in which case the
    /// caller still holds its reader lock. On success the caller holds the
    /// writer lock. The call may wait for the *other* readers to drain; it
    /// never waits behind a writer (that is exactly the failure case).
    pub fn try_upgrade(&self) -> bool {
        if self.wrwait.load(Ordering::Relaxed) > 0 {
            return false;
        }
        // Claim the single upgrade slot.
        loop {
            let s = self.state.load(Ordering::Relaxed);
            debug_assert_eq!(s & WRITER, 0, "rw_tryupgrade without a reader lock");
            debug_assert_ne!(s & COUNT_MASK, 0, "rw_tryupgrade without a reader lock");
            if s & UPGRADE != 0 {
                return false;
            }
            if self
                .state
                .compare_exchange_weak(s, s | UPGRADE, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        // Wait for the other readers to leave, then convert our remaining
        // hold into the writer lock.
        let mut t0 = 0u64;
        loop {
            if self
                .state
                .compare_exchange(UPGRADE | 1, WRITER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                sunmt_stat::lock::block_end(self.site(), t0);
                return true;
            }
            let seq = self.wrseq.load(Ordering::Acquire);
            if self.state.load(Ordering::Relaxed) == UPGRADE | 1 {
                continue;
            }
            sunmt_trace::probe!(
                sunmt_trace::Tag::RwBlock,
                &self.state as *const _ as usize,
                1u64 // writer
            );
            if sunmt_stat::enabled() {
                if t0 == 0 {
                    t0 = sunmt_stat::lock::slow_begin(self.site());
                }
                sunmt_stat::lock::parked(self.site());
            }
            strategy::park(&self.wrseq, seq, self.shared());
        }
    }

    /// Racy snapshot of (writer held, reader count) for tests/diagnostics.
    pub fn holders(&self) -> (bool, u32) {
        let s = self.state.load(Ordering::Relaxed);
        (s & WRITER != 0, s & COUNT_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn zeroed_rwlock_is_unheld() {
        let zeroed = [0u8; core::mem::size_of::<RwLock>()];
        // SAFETY: All-zero is the documented valid default state.
        let l: &RwLock = unsafe { &*(zeroed.as_ptr() as *const RwLock) };
        assert_eq!(l.holders(), (false, 0));
        assert!(l.try_enter(RwType::Writer));
        l.exit();
    }

    #[test]
    fn many_readers_share() {
        let l = RwLock::new(SyncType::DEFAULT);
        l.enter(RwType::Reader);
        l.enter(RwType::Reader);
        l.enter(RwType::Reader);
        assert_eq!(l.holders(), (false, 3));
        assert!(!l.try_enter(RwType::Writer));
        l.exit();
        l.exit();
        l.exit();
        assert_eq!(l.holders(), (false, 0));
    }

    #[test]
    fn writer_excludes_readers() {
        let l = RwLock::new(SyncType::DEFAULT);
        l.enter(RwType::Writer);
        assert!(!l.try_enter(RwType::Reader));
        assert!(!l.try_enter(RwType::Writer));
        l.exit();
        assert!(l.try_enter(RwType::Reader));
        l.exit();
    }

    #[test]
    fn downgrade_keeps_exclusion_until_release() {
        let l = RwLock::new(SyncType::DEFAULT);
        l.enter(RwType::Writer);
        l.downgrade();
        assert_eq!(l.holders(), (false, 1));
        // Readers may now join; writers may not.
        assert!(l.try_enter(RwType::Reader));
        assert!(!l.try_enter(RwType::Writer));
        l.exit();
        l.exit();
    }

    #[test]
    fn try_upgrade_sole_reader_succeeds() {
        let l = RwLock::new(SyncType::DEFAULT);
        l.enter(RwType::Reader);
        assert!(l.try_upgrade());
        assert_eq!(l.holders(), (true, 0));
        l.exit();
    }

    #[test]
    fn concurrent_upgrades_one_wins() {
        let l = Arc::new(RwLock::new(SyncType::DEFAULT));
        l.enter(RwType::Reader);
        let l2 = Arc::clone(&l);
        let other = std::thread::spawn(move || {
            l2.enter(RwType::Reader);
            let won = l2.try_upgrade();
            if won {
                l2.exit(); // Release writer hold.
            } else {
                l2.exit(); // Release reader hold.
            }
            won
        });
        std::thread::sleep(Duration::from_millis(5));
        let mine = l.try_upgrade();
        l.exit();
        let theirs = other.join().unwrap();
        assert!(
            mine ^ theirs || !(mine && theirs),
            "two upgrades must not both succeed (mine={mine}, theirs={theirs})"
        );
        assert!(!(mine && theirs));
        assert_eq!(l.holders(), (false, 0));
    }

    #[test]
    fn readers_and_writers_exclude_under_load() {
        const LWPS: usize = 4;
        const ITERS: usize = 2_000;
        let l = Arc::new(RwLock::new(SyncType::DEFAULT));
        let readers_in = Arc::new(AtomicU32::new(0));
        let writer_in = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for i in 0..LWPS {
            let l = Arc::clone(&l);
            let readers_in = Arc::clone(&readers_in);
            let writer_in = Arc::clone(&writer_in);
            handles.push(std::thread::spawn(move || {
                for n in 0..ITERS {
                    if (n + i) % 4 == 0 {
                        l.enter(RwType::Writer);
                        assert_eq!(writer_in.fetch_add(1, Ordering::SeqCst), 0);
                        assert_eq!(readers_in.load(Ordering::SeqCst), 0);
                        writer_in.fetch_sub(1, Ordering::SeqCst);
                        l.exit();
                    } else {
                        l.enter(RwType::Reader);
                        readers_in.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(writer_in.load(Ordering::SeqCst), 0);
                        readers_in.fetch_sub(1, Ordering::SeqCst);
                        l.exit();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.holders(), (false, 0));
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        let l = Arc::new(RwLock::new(SyncType::DEFAULT));
        l.enter(RwType::Reader);
        let l2 = Arc::clone(&l);
        let writer = std::thread::spawn(move || {
            l2.enter(RwType::Writer);
            l2.exit();
        });
        // Give the writer time to queue up.
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !l.try_enter(RwType::Reader),
            "new readers must queue behind a waiting writer"
        );
        l.exit();
        writer.join().unwrap();
    }
}
