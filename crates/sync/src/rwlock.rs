//! Multiple-readers, single-writer locks.
//!
//! "Multiple readers, single writer locks allow many threads simultaneous
//! read-only access to an object ... It allows only one thread to access an
//! object for writing at any one time, and excludes any readers. A good
//! candidate ... is an object that is searched more frequently than it is
//! changed."
//!
//! Such an object is read on every LWP at once, so a private lock keeps its
//! readers in per-LWP *reader slots*: a reader increments its own LWP's
//! slot and then checks for a writer, and an uncontended read enter/exit
//! never writes a cache line another LWP touches. A writer claims the
//! writer bit of the state word and then *drains*: it parks until the slots
//! sum to zero. A `SHARED` lock lives in memory other processes map, where
//! a process-local slot array cannot follow it, so it counts its readers in
//! the state word instead.

use core::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};

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
/// Slot mode: the writer bit's owner has drained the slots and holds the
/// lock. Without it, `WRITER` or `UPGRADE` means "draining", and the
/// readers still inside are the ones `exit` must tell apart from the owner.
const DRAINED: u32 = 1 << 29;
const COUNT_MASK: u32 = DRAINED - 1;

/// A value on a cache line of its own.
#[repr(align(64))]
struct Line<T>(T);

/// A private lock's reader slots: one heap block of `slot_count() + 1`
/// cache lines, allocated on the lock's first read enter. Line 0 is the
/// draining writer's park word, 1 while it is armed to park. Each other
/// line is a slot: a signed reader count, two's complement in a `u32`.
/// Only the wrapping sum of the slots means anything, since an unbound
/// reader that blocks inside its hold may resume on another LWP and leave
/// through that LWP's slot.
#[derive(Clone, Copy)]
struct Slots<'a>(&'a [Line<AtomicU32>]);

impl<'a> Slots<'a> {
    /// A new zeroed block, as the pointer the lock keeps.
    fn alloc() -> *mut Line<AtomicU32> {
        let block: Box<[Line<AtomicU32>]> = (0..=slot_count())
            .map(|_| Line(AtomicU32::new(0)))
            .collect();
        Box::into_raw(block).cast()
    }

    /// # Safety
    ///
    /// `p` came from [`Self::alloc`] and nothing uses the block any more.
    unsafe fn free(p: *mut Line<AtomicU32>) {
        let block = core::ptr::slice_from_raw_parts_mut(p, slot_count() + 1);
        // SAFETY: `alloc` boxed a slice of this length (`slot_count` is
        // fixed for the life of the process); the caller owns the block.
        drop(unsafe { Box::from_raw(block) });
    }

    /// # Safety
    ///
    /// `p` came from [`Self::alloc`] and the block outlives `'a`.
    unsafe fn from_raw(p: *const Line<AtomicU32>) -> Slots<'a> {
        // SAFETY: As for `free`; the caller keeps the block alive.
        Slots(unsafe { core::slice::from_raw_parts(p, slot_count() + 1) })
    }

    #[inline]
    fn drain(self) -> &'a AtomicU32 {
        &self.0[0].0
    }

    /// The caller's slot.
    #[inline]
    fn mine(self) -> &'a AtomicU32 {
        &self.0[1 + (my_slot() & (self.0.len() - 2))].0
    }

    /// Readers inside the lock.
    fn sum(self) -> i32 {
        self.0[1..]
            .iter()
            .fold(0u32, |n, l| n.wrapping_add(l.0.load(Ordering::SeqCst))) as i32
    }
}

/// Slots per lock: one per run-queue shard, rounded up to a power of two
/// for the index mask. With the park word's line, a block is
/// `64 * (slot_count() + 1)` bytes: 192 B on 2 processors, 4.1 KB on 64.
fn slot_count() -> usize {
    strategy::processors().next_power_of_two()
}

/// The caller's slot index: what the blocking strategy names (a pool LWP's
/// home shard under the threads library), else a per-kernel-thread
/// round-robin index.
#[inline]
fn my_slot() -> usize {
    strategy::reader_slot().unwrap_or_else(|| {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
        }
        SLOT.try_with(|s| *s).unwrap_or(0)
    })
}

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
    /// Bit 31: writer held (or draining). Bit 30: an upgrade is in
    /// progress. Bit 29: the slots are drained. Low bits (`SHARED` only):
    /// reader count, the upgrader's own hold included.
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
    /// A private lock's reader slots; null until the first read enter.
    /// Never read for a `SHARED` lock, whose bytes may come from another
    /// process.
    slots: AtomicPtr<Line<AtomicU32>>,
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
            slots: AtomicPtr::new(core::ptr::null_mut()),
        }
    }

    /// `rw_init()`: (re)initializes the variable to the given variant.
    ///
    /// Must not be called while the lock is held or waited on. It never
    /// frees the reader slots, so a misuse corrupts only the lock's state:
    /// a private lock keeps its block (whose slots sum to zero when the
    /// lock is unheld), and a `SHARED` one, or one that was `SHARED`,
    /// forgets the pointer field unread. A private block forgotten that way
    /// leaks.
    pub fn init(&self, kind: SyncType) {
        if kind.is_shared() || self.shared() {
            self.slots.store(core::ptr::null_mut(), Ordering::Release);
        }
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

    /// A private lock's reader slots, once allocated. `None` for a `SHARED`
    /// lock without reading its pointer field.
    #[inline]
    fn slots(&self) -> Option<Slots<'_>> {
        if self.shared() {
            return None;
        }
        let p = self.slots.load(Ordering::Acquire);
        if p.is_null() {
            return None;
        }
        // SAFETY: A private lock's non-null pointer is a block published by
        // `slots_held` (Release, paired with the Acquire above): `init`
        // never frees it, and `drop` needs `&mut self`. A lock in mapped
        // memory must be all-zero or `SHARED`-initialised, which keeps
        // another process's pointer out of this field.
        Some(unsafe { Slots::from_raw(p) })
    }

    /// The slots of a private lock, allocated on first use. The caller
    /// holds the writer bit, so no reader or writer is inside while they
    /// appear.
    fn slots_held(&self) -> Slots<'_> {
        debug_assert!(!self.shared(), "a SHARED lock has no reader slots");
        if self.slots.load(Ordering::Relaxed).is_null() {
            self.slots.store(Slots::alloc(), Ordering::Release);
        }
        self.slots().expect("slots just published")
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

    /// Traces and counts one park of a waiter (`writer` for writers,
    /// upgraders and drains).
    fn note_park(&self, t0: &mut u64, writer: bool) {
        sunmt_trace::probe!(sunmt_trace::Tag::RwBlock, self.site(), writer);
        if sunmt_trace::counting() {
            if *t0 == 0 {
                *t0 = sunmt_stat::lock::slow_begin(self.site());
            }
            sunmt_stat::lock::parked(self.site());
        }
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
            if self.try_read() {
                sunmt_stat::lock::block_end(self.site(), t0);
                return;
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
            self.note_park(&mut t0, false);
            strategy::park(&self.rdseq, seq, self.shared());
            self.rdwait.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// One read-enter attempt that never blocks.
    fn try_read(&self) -> bool {
        if self.shared() {
            return self.try_count_read();
        }
        if let Some(slots) = self.slots() {
            return self.try_slot_read(slots);
        }
        // First read of a private lock: switch it to slots under the writer
        // bit. A held lock makes the caller wait like any blocked reader. No
        // `DRAINED` mark: a racing switch may have let slot readers in, and
        // their `exit` must not take this transient hold for a drained one.
        if self
            .state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let slots = self.slots_held();
        self.release_write();
        self.try_slot_read(slots)
    }

    fn try_count_read(&self) -> bool {
        loop {
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
        }
    }

    fn try_slot_read(&self, slots: Slots<'_>) -> bool {
        // A reader that already sees a writer does not publish at all: its
        // publish-and-back-off would only make a draining writer's sum
        // flicker and cost it a wasted wake. A filter only (hence Relaxed):
        // the check after the publish decides.
        if !self.reader_may_enter(self.state.load(Ordering::Relaxed)) {
            return false;
        }
        // Publish, then check: the reader half of a Dekker pair whose writer
        // half claims the writer bit and then sums the slots. All four
        // accesses are `SeqCst`, so either this reader sees the writer and
        // backs off, or the writer's sum counts this reader.
        let slot = slots.mine();
        slot.fetch_add(1, Ordering::SeqCst);
        if self.reader_may_enter(self.state.load(Ordering::SeqCst)) {
            return true;
        }
        slot.fetch_sub(1, Ordering::SeqCst);
        self.wake_drainer(slots);
        false
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
                if let Some(slots) = self.slots() {
                    self.drain(slots, &mut t0);
                }
                sunmt_stat::lock::block_end(self.site(), t0);
                return;
            }
            let seq = self.wrseq.load(Ordering::Acquire);
            if self.state.load(Ordering::SeqCst) == 0 {
                continue;
            }
            self.note_park(&mut t0, true);
            strategy::park(&self.wrseq, seq, self.shared());
        }
    }

    /// Parks (never spins: a reader may be parked inside its hold on the
    /// only LWP) until no reader is inside, then marks the hold drained.
    /// The caller owns `WRITER` or `UPGRADE`, so no new reader gets in.
    fn drain(&self, slots: Slots<'_>, t0: &mut u64) {
        let word = slots.drain();
        while slots.sum() != 0 {
            // Arm, then re-check: the pair of `wake_drainer`'s
            // sum-then-disarm, so the last reader out cannot miss us.
            word.store(1, Ordering::SeqCst);
            if slots.sum() == 0 {
                break;
            }
            self.note_park(t0, true);
            strategy::park(word, 1, false);
        }
        // Relaxed: neither store publishes data. A reader that still sees
        // the word armed or the mark missing can at most wake us once more,
        // and only we, the holder, act on the mark. Nothing else writes
        // `state` while we own its writer or upgrade bit.
        word.store(0, Ordering::Relaxed);
        self.state.store(WRITER | DRAINED, Ordering::Relaxed);
    }

    /// Wakes the writer or upgrader draining the slots if this exit or
    /// back-off emptied them. Gated so that readers bouncing off a held
    /// lock do not each pay a wake: only while a drainer is armed and not
    /// yet done, only when the sum is 0, and only for the one reader whose
    /// swap disarms it. One waiter and a word of its own, so the wake stays
    /// at user level when the drainer is an unbound thread.
    fn wake_drainer(&self, slots: Slots<'_>) {
        let s = self.state.load(Ordering::SeqCst);
        let word = slots.drain();
        if s & (WRITER | UPGRADE) != 0
            && s & DRAINED == 0
            && word.load(Ordering::SeqCst) == 1
            && slots.sum() == 0
            && word.swap(0, Ordering::SeqCst) == 1
        {
            strategy::unpark(word, 1, false);
        }
    }

    /// `rw_tryenter()`: acquires the lock "if doing so would not require
    /// blocking"; returns whether it was acquired.
    pub fn try_enter(&self, t: RwType) -> bool {
        match t {
            RwType::Reader => self.try_read(),
            RwType::Writer => {
                if self
                    .state
                    .compare_exchange(0, WRITER, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    return false;
                }
                match self.slots() {
                    Some(slots) if slots.sum() != 0 => {
                        // Readers are inside: give the bit back, waking any
                        // reader that backed off from it.
                        self.release_write();
                        false
                    }
                    Some(_) => {
                        self.state.store(WRITER | DRAINED, Ordering::Relaxed);
                        true
                    }
                    None => true,
                }
            }
        }
    }

    /// `rw_exit()`: releases a readers or writer lock.
    pub fn exit(&self) {
        let s = self.state.load(Ordering::Relaxed);
        match self.slots() {
            // No drained mark: the caller is not the holder but a reader,
            // perhaps one a draining writer waits for. (A reader cannot see
            // a mark: no drain completes while its slot counts it.)
            Some(slots) if s & DRAINED == 0 => {
                slots.mine().fetch_sub(1, Ordering::SeqCst);
                self.wake_drainer(slots);
            }
            _ if s & WRITER != 0 => {
                debug_assert_eq!(
                    s & (UPGRADE | COUNT_MASK),
                    0,
                    "writer hold must exclude all readers"
                );
                self.release_write();
            }
            _ => self.exit_counted_reader(),
        }
    }

    fn release_write(&self) {
        // A swap, not a store: the release must be ordered before the
        // `wrwait` read in `wake_after_release` (see `enter_writer`), and a
        // plain store may still sit in the store buffer when that load runs.
        self.state.swap(0, Ordering::SeqCst);
        self.wake_after_release(self.shared());
    }

    fn exit_counted_reader(&self) {
        let shared = self.shared();
        debug_assert_ne!(
            self.state.load(Ordering::Relaxed) & COUNT_MASK,
            0,
            "rw_exit with no readers"
        );
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
        if !self.shared() {
            // Move the hold into the caller's slot before the writer bit
            // goes, so no writer can drain past it. A waiting writer is
            // woken to claim the bit and then drains behind this hold: it
            // remains waiting, and new readers queue behind it.
            self.slots_held().mine().fetch_add(1, Ordering::SeqCst);
            let prev = self.state.swap(0, Ordering::SeqCst);
            debug_assert_eq!(
                prev & WRITER,
                WRITER,
                "rw_downgrade without the writer lock"
            );
            self.wake_after_release(false);
            return;
        }
        let prev = self.state.swap(1, Ordering::Release);
        debug_assert_eq!(prev, WRITER, "rw_downgrade without the writer lock");
        if self.wrwait.load(Ordering::Relaxed) == 0 {
            self.rdseq.fetch_add(1, Ordering::SeqCst);
            if self.rdwait.load(Ordering::SeqCst) > 0 {
                strategy::unpark(&self.rdseq, u32::MAX, true);
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
        // Claim the single upgrade slot. A writer bit seen here belongs to
        // a writer draining past this reader: a waiting writer.
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s & (WRITER | UPGRADE) != 0 {
                return false;
            }
            if self
                .state
                .compare_exchange_weak(s, s | UPGRADE, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        let mut t0 = 0u64;
        if let Some(slots) = self.slots() {
            // `UPGRADE` now stands for the caller's hold: give up its slot
            // and drain the others.
            slots.mine().fetch_sub(1, Ordering::SeqCst);
            self.drain(slots, &mut t0);
            sunmt_stat::lock::block_end(self.site(), t0);
            return true;
        }
        // Wait for the other readers to leave, then convert our remaining
        // hold into the writer lock.
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
            self.note_park(&mut t0, true);
            strategy::park(&self.wrseq, seq, self.shared());
        }
    }

    /// Racy snapshot of (writer held, reader count) for tests/diagnostics.
    pub fn holders(&self) -> (bool, u32) {
        let s = self.state.load(Ordering::Relaxed);
        match self.slots() {
            Some(slots) => (s & DRAINED != 0, slots.sum().max(0) as u32),
            None => (s & WRITER != 0, s & COUNT_MASK),
        }
    }
}

impl Drop for RwLock {
    fn drop(&mut self) {
        // The one place the slots are freed: `&mut self` means nobody is
        // inside them.
        let p = *self.slots.get_mut();
        if !p.is_null() && !SyncType(*self.kind.get_mut()).is_shared() {
            // SAFETY: A private lock's non-null pointer came from
            // `Slots::alloc` (see `slots`).
            unsafe { Slots::free(p) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn zeroed_rwlock_is_unheld() {
        assert!(core::mem::size_of::<RwLock>() <= 32);
        // SAFETY: All-zero is the documented valid default state.
        let l: RwLock = unsafe { core::mem::zeroed() };
        assert_eq!(l.holders(), (false, 0));
        assert!(l.try_enter(RwType::Writer));
        l.exit();
        l.enter(RwType::Reader);
        assert_eq!(l.holders(), (false, 1));
        l.exit();
    }

    #[test]
    fn shared_lock_counts_in_the_word_and_never_allocates() {
        let l = RwLock::new(SyncType::SHARED);
        l.enter(RwType::Reader);
        l.enter(RwType::Reader);
        assert_eq!(l.state.load(Ordering::Relaxed), 2);
        l.exit();
        assert!(l.try_upgrade());
        l.downgrade();
        l.exit();
        assert!(l.slots.load(Ordering::Relaxed).is_null());
    }

    #[test]
    fn many_readers_share() {
        for kind in [SyncType::DEFAULT, SyncType::SHARED] {
            let l = Arc::new(RwLock::new(kind));
            l.enter(RwType::Reader);
            l.enter(RwType::Reader);
            l.enter(RwType::Reader);
            assert_eq!(l.holders(), (false, 3));
            assert!(!l.try_enter(RwType::Writer));
            // From another kernel thread, which may count on another slot.
            let try_write = || {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    let got = l.try_enter(RwType::Writer);
                    if got {
                        l.exit();
                    }
                    got
                })
                .join()
                .unwrap()
            };
            assert!(!try_write());
            // The failed attempts gave the writer bit back.
            assert!(l.try_enter(RwType::Reader));
            l.exit();
            l.exit();
            l.exit();
            l.exit();
            assert_eq!(l.holders(), (false, 0));
            assert!(try_write());
        }
    }

    #[test]
    fn writer_excludes_readers() {
        for kind in [SyncType::DEFAULT, SyncType::SHARED] {
            let l = RwLock::new(kind);
            l.enter(RwType::Writer);
            assert!(!l.try_enter(RwType::Reader));
            assert!(!l.try_enter(RwType::Writer));
            l.exit();
            assert!(l.try_enter(RwType::Reader));
            l.exit();
            // Once the slots exist, the same holds through them.
            l.enter(RwType::Writer);
            assert_eq!(l.holders(), (true, 0));
            assert!(!l.try_enter(RwType::Reader));
            l.exit();
        }
    }

    #[test]
    fn downgrade_keeps_exclusion_until_release() {
        for kind in [SyncType::DEFAULT, SyncType::SHARED] {
            let l = RwLock::new(kind);
            l.enter(RwType::Writer);
            l.downgrade();
            assert_eq!(l.holders(), (false, 1));
            // Readers may now join; writers may not.
            assert!(l.try_enter(RwType::Reader));
            assert!(!l.try_enter(RwType::Writer));
            l.exit();
            l.exit();
            assert_eq!(l.holders(), (false, 0));
        }
    }

    #[test]
    fn try_upgrade_sole_reader_succeeds() {
        for kind in [SyncType::DEFAULT, SyncType::SHARED] {
            let l = RwLock::new(kind);
            l.enter(RwType::Reader);
            assert!(l.try_upgrade());
            assert_eq!(l.holders(), (true, 0));
            l.exit();
            assert_eq!(l.holders(), (false, 0));
        }
    }

    #[test]
    fn slot_block_is_a_line_per_slot_plus_the_park_word() {
        assert_eq!(core::mem::size_of::<Line<AtomicU32>>(), 64);
        let p = Slots::alloc();
        // SAFETY: Fresh from `alloc`, freed below.
        let slots = unsafe { Slots::from_raw(p) };
        assert_eq!(slots.0.len(), slot_count() + 1);
        assert!(slot_count().is_power_of_two());
        slots.mine().fetch_sub(1, Ordering::Relaxed);
        assert_eq!(slots.sum(), -1, "slots count two's complement");
        // SAFETY: `slots` is dead.
        unsafe { Slots::free(p) };
    }

    #[test]
    fn init_keeps_a_private_block_and_shared_init_forgets_it() {
        let l = RwLock::new(SyncType::DEFAULT);
        l.enter(RwType::Reader);
        l.exit();
        let block = l.slots.load(Ordering::Relaxed);
        assert!(!block.is_null());
        l.init(SyncType::DEFAULT);
        assert_eq!(l.slots.load(Ordering::Relaxed), block);
        l.enter(RwType::Reader);
        assert_eq!(l.holders(), (false, 1));
        l.exit();
        l.init(SyncType::SHARED);
        assert!(l.slots.load(Ordering::Relaxed).is_null());
        l.enter(RwType::Reader);
        assert_eq!(l.holders(), (false, 1));
        l.exit();
        // SAFETY: `init(SHARED)` let go of the block without freeing it.
        unsafe { Slots::free(block) };
    }

    #[test]
    fn shared_lock_never_touches_foreign_slot_bytes() {
        // What a reused file may hold where a private lock kept its pointer.
        let foreign = 0xdead_bec0usize as *mut Line<AtomicU32>;
        // A SHARED lock runs on the word and leaves the field alone.
        let l = RwLock::new(SyncType::SHARED);
        l.slots.store(foreign, Ordering::Relaxed);
        l.enter(RwType::Reader);
        assert_eq!(l.holders(), (false, 1));
        assert!(!l.try_enter(RwType::Writer));
        assert!(l.try_upgrade());
        l.downgrade();
        l.exit();
        l.enter(RwType::Writer);
        assert_eq!(l.holders(), (true, 0));
        l.exit();
        assert_eq!(l.slots.load(Ordering::Relaxed), foreign);
        // `init(SHARED)` over private bytes forgets the pointer unread.
        l.init(SyncType::DEFAULT);
        l.slots.store(foreign, Ordering::Relaxed);
        l.init(SyncType::SHARED);
        assert!(l.slots.load(Ordering::Relaxed).is_null());
        l.enter(RwType::Reader);
        l.exit();
        assert_eq!(l.holders(), (false, 0));
    }

    #[test]
    fn slot_sum_survives_exit_on_another_slot() {
        let l = Arc::new(RwLock::new(SyncType::DEFAULT));
        l.enter(RwType::Reader);
        // Leave from another kernel thread, whose fallback index may name
        // another slot: only the sum has to return to zero.
        let l2 = Arc::clone(&l);
        std::thread::spawn(move || l2.exit()).join().unwrap();
        assert_eq!(l.holders(), (false, 0));
        assert!(l.try_enter(RwType::Writer));
        l.exit();
    }

    #[test]
    fn concurrent_upgrades_one_wins() {
        for kind in [SyncType::DEFAULT, SyncType::SHARED] {
            let l = Arc::new(RwLock::new(kind));
            l.enter(RwType::Reader);
            let l2 = Arc::clone(&l);
            let (holding_tx, holding_rx) = std::sync::mpsc::channel();
            let other = std::thread::spawn(move || {
                l2.enter(RwType::Reader);
                holding_tx.send(()).unwrap();
                let won = l2.try_upgrade();
                // Releases the writer hold if it won, the reader hold if not.
                l2.exit();
                won
            });
            // Upgrade only once both reads are held: each upgrade then
            // runs while the other thread still holds at least its read.
            holding_rx.recv().unwrap();
            let mine = l.try_upgrade();
            l.exit();
            let theirs = other.join().unwrap();
            assert!(
                !(mine && theirs),
                "two upgrades must not both succeed (mine={mine}, theirs={theirs})"
            );
            assert_eq!(l.holders(), (false, 0));
        }
    }

    #[test]
    fn readers_and_writers_exclude_under_load() {
        // Four threads writing one turn in four, and two alternating as
        // fast as they can, so that a writer's claim-and-sum often lands
        // between a reader's publish and its check.
        for (lwps, write_every, iters) in [(4, 4, 2_000), (2, 2, 500_000)] {
            for kind in [SyncType::DEFAULT, SyncType::SHARED] {
                exclude_under_load(kind, lwps, write_every, iters);
            }
        }
    }

    fn exclude_under_load(kind: SyncType, lwps: usize, write_every: usize, iters: usize) {
        let l = Arc::new(RwLock::new(kind));
        let readers_in = Arc::new(AtomicU32::new(0));
        let writer_in = Arc::new(AtomicU32::new(0));
        let (done, finished) = std::sync::mpsc::channel();
        let mut handles = Vec::new();
        for i in 0..lwps {
            let l = Arc::clone(&l);
            let readers_in = Arc::clone(&readers_in);
            let writer_in = Arc::clone(&writer_in);
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                for n in 0..iters {
                    if (n + i) % write_every == 0 {
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
                let _ = done.send(());
            }));
        }
        // A reader let in beside a writer may leave a slot that never
        // drains, or a panicking thread may keep the lock: fail, not hang.
        for _ in 0..lwps {
            finished
                .recv_timeout(Duration::from_secs(10))
                .expect("stalled: a thread failed or a drain never finished");
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.holders(), (false, 0));
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        for kind in [SyncType::DEFAULT, SyncType::SHARED] {
            let l = Arc::new(RwLock::new(kind));
            l.enter(RwType::Reader);
            let l2 = Arc::clone(&l);
            let writer = std::thread::spawn(move || {
                l2.enter(RwType::Writer);
                l2.exit();
            });
            // Wait until the writer is queued: announced, or holding the
            // writer bit while it drains our read.
            let start = std::time::Instant::now();
            while l.wrwait.load(Ordering::SeqCst) == 0
                && l.state.load(Ordering::SeqCst) & WRITER == 0
            {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "writer never queued"
                );
                std::thread::yield_now();
            }
            assert!(
                !l.try_enter(RwType::Reader),
                "new readers must queue behind a waiting writer"
            );
            l.exit();
            writer.join().unwrap();
        }
    }
}
