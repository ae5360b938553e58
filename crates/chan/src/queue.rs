//! The lock-free bounded ring behind every channel's fast path.
//!
//! A Vyukov-style MPMC ring: each slot carries a sequence number that
//! encodes both "whose turn" and "full or empty", so producers and
//! consumers claim slots with one CAS on their own cursor and never touch
//! the other side's cacheline on the uncontended path. No slot is ever
//! read and written concurrently — the sequence hand-off is the only
//! synchronization a slot needs.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Puts a hot cursor on its own cache line so producers CASing `tail`
/// never invalidate the consumers' `head` line (and vice versa).
#[repr(align(64))]
struct CacheLine<T>(T);

struct Slot<T> {
    /// Vyukov sequence: `pos` means "empty, awaiting the producer of
    /// lap `pos`"; `pos + 1` means "full, awaiting the consumer of lap
    /// `pos`". Consumers bump it by one full lap after reading.
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A fixed-capacity MPMC ring. Capacity is rounded up to a power of two.
pub(crate) struct Ring<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    /// Producers' claim cursor.
    tail: CacheLine<AtomicUsize>,
    /// Consumers' claim cursor.
    head: CacheLine<AtomicUsize>,
}

// SAFETY: Values move through the ring by ownership transfer, so sending
// the ring to another LWP moves only `T: Send` values with it.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: The seq protocol guarantees exclusive access to a slot's cell
// between the CAS that claims it and the store that publishes it, so
// shared `&Ring` access never reads and writes one cell concurrently.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// A ring holding at least `cap` messages. The floor is 2, not 1: a
    /// one-slot ring cannot distinguish "full since lap N" from "freed
    /// for lap N+1" (both read `seq == pos`), so a producer one lap
    /// ahead would overwrite the unconsumed value.
    pub(crate) fn with_capacity(cap: usize) -> Ring<T> {
        let cap = cap.max(2).next_power_of_two();
        let buf = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            buf,
            mask: cap - 1,
            tail: CacheLine(AtomicUsize::new(0)),
            head: CacheLine(AtomicUsize::new(0)),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Appends `v`, or hands it back if the ring is full.
    pub(crate) fn try_push(&self, v: T) -> Result<(), T> {
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Our turn: claim the slot by advancing the cursor.
                match self.tail.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: The CAS claimed lap `pos` of this slot
                        // for us alone, and `seq == pos` says the consumer
                        // of the previous lap has finished with the cell.
                        unsafe { (*slot.val.get()).write(v) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                // The slot still holds last lap's value: full.
                return Err(v);
            } else {
                // Another producer claimed `pos`; chase the cursor.
                pos = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Removes the oldest message, or `None` if the ring is (transiently)
    /// empty — including when a producer has claimed a slot but not yet
    /// published it; callers treat that exactly like empty and re-check.
    pub(crate) fn try_pop(&self) -> Option<T> {
        let mut pos = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - (pos + 1) as isize;
            if dif == 0 {
                match self.head.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: The CAS claimed lap `pos` for us alone,
                        // and `seq == pos + 1` (acquired above) says its
                        // producer published an initialized value.
                        let v = unsafe { (*slot.val.get()).assume_init_read() };
                        // Free the slot for the producer one lap ahead.
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(v);
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate occupancy (racy by nature; used for gating park
    /// decisions — always re-checked — and for depth statistics).
    pub(crate) fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let r = Ring::with_capacity(4);
        assert_eq!(r.capacity(), 4);
        for i in 0..4 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.try_push(99), Err(99));
        assert_eq!(r.len(), 4);
        for i in 0..4 {
            assert_eq!(r.try_pop(), Some(i));
        }
        assert_eq!(r.try_pop(), None);
    }

    #[test]
    fn capacity_one_rounds_up_instead_of_overwriting() {
        // See `with_capacity`: a literal one-slot Vyukov ring loses its
        // seq disambiguation and a second push clobbers the first.
        let r = Ring::with_capacity(1);
        assert_eq!(r.capacity(), 2);
        r.try_push(1).unwrap();
        r.try_push(2).unwrap();
        assert_eq!(r.try_push(3), Err(3));
        assert_eq!(r.try_pop(), Some(1));
        assert_eq!(r.try_pop(), Some(2));
        assert_eq!(r.try_pop(), None);
    }

    #[test]
    fn wraps_many_laps() {
        let r = Ring::with_capacity(2);
        for i in 0..1000 {
            r.try_push(i).unwrap();
            assert_eq!(r.try_pop(), Some(i));
        }
    }

    #[test]
    fn concurrent_conservation() {
        const PER: usize = 20_000;
        let r = Arc::new(Ring::with_capacity(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER as u64 {
                    let mut v = t << 32 | i;
                    loop {
                        match r.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let mut sums = [0u64; 4];
        let mut counts = [0usize; 4];
        let mut got = 0;
        while got < 4 * PER {
            if let Some(v) = r.try_pop() {
                let t = (v >> 32) as usize;
                // Per-producer FIFO: values from one thread arrive in order.
                let seq = v & 0xffff_ffff;
                assert_eq!(seq, counts[t] as u64, "producer {t} reordered");
                counts[t] += 1;
                sums[t] += seq;
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let expect = (0..PER as u64).sum::<u64>();
        assert_eq!(sums, [expect; 4]);
        assert_eq!(r.try_pop(), None);
    }
}
