//! The per-LWP event ring: a fixed-size buffer of seqlock-protected slots
//! with a single writer (the owning LWP) and any number of lock-free
//! readers (the collector).
//!
//! The writer never blocks and never allocates: it overwrites the oldest
//! slot when the ring is full, exactly like the SunOS TNF per-thread trace
//! buffers. A reader that races an in-flight overwrite detects the torn
//! slot via its sequence word and skips it.

use core::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use crate::tag::Tag;
use crate::Event;

/// Slots per ring. Power of two so head wraps by masking.
pub const RING_CAP: usize = 4096;

/// One event slot, guarded by a per-slot sequence word: odd while a write
/// is in flight, even when stable. All fields are individual atomics, so a
/// racing read is never undefined behavior — only detectably inconsistent.
#[derive(Default)]
struct Slot {
    seq: AtomicU32,
    tag: AtomicU32,
    lwp: AtomicU32,
    thread: AtomicU32,
    /// Raw [`crate::clock::now_cycles`] stamp.
    ts: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A single-writer event ring.
pub struct Ring {
    /// Monotonic count of events ever pushed; slot index is `head % CAP`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    /// Creates an empty ring.
    pub fn new() -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..RING_CAP).map(|_| Slot::default()).collect(),
        }
    }

    /// Appends one event. Must only be called from the ring's owning LWP
    /// (single writer); readers may run concurrently.
    pub fn push(&self, ts: u64, lwp: u32, thread: u32, tag: Tag, a: u64, b: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (RING_CAP - 1)];
        let seq = slot.seq.load(Ordering::Relaxed);
        // Mark the slot torn, publish the mark before any field write, then
        // write fields and re-mark stable.
        slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        slot.tag.store(tag as u32, Ordering::Relaxed);
        slot.lwp.store(lwp, Ordering::Relaxed);
        slot.thread.store(thread, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to overwrite: everything pushed beyond the newest
    /// [`RING_CAP`] is gone. Zero until the ring first wraps.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(RING_CAP as u64)
    }

    /// Copies every readable event stamped `>= since` into `out`, in push
    /// order, with its raw stamp in `ts_ns` (the caller converts). Slots
    /// torn by a concurrent writer are skipped.
    pub fn collect_into(&self, since: u64, out: &mut Vec<Event>) {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(RING_CAP as u64);
        for i in (head - n)..head {
            let slot = &self.slots[(i as usize) & (RING_CAP - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                continue;
            }
            let tag = slot.tag.load(Ordering::Relaxed);
            let lwp = slot.lwp.load(Ordering::Relaxed);
            let thread = slot.thread.load(Ordering::Relaxed);
            let ts = slot.ts.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue;
            }
            let Some(tag) = Tag::from_u16(tag as u16) else {
                continue;
            };
            if ts >= since {
                out.push(Event {
                    ts_ns: ts,
                    lwp,
                    thread,
                    tag,
                    a,
                    b,
                });
            }
        }
    }
}

impl Default for Ring {
    fn default() -> Ring {
        Ring::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_the_newest_cap_events() {
        let r = Ring::new();
        let total = RING_CAP as u64 + 100;
        for i in 0..total {
            r.push(i, 1, 2, Tag::RunqPush, i, 0);
        }
        assert_eq!(r.pushed(), total);
        let mut out = Vec::new();
        r.collect_into(0, &mut out);
        assert_eq!(out.len(), RING_CAP);
        // The survivors are exactly the newest CAP events, in order.
        assert_eq!(out[0].a, 100);
        assert_eq!(out.last().unwrap().a, total - 1);
        for w in out.windows(2) {
            assert_eq!(w[1].a, w[0].a + 1);
        }
    }

    #[test]
    fn dropped_counts_only_overwritten_events() {
        let r = Ring::new();
        for i in 0..RING_CAP as u64 {
            r.push(i, 1, 0, Tag::Sleep, i, 0);
            assert_eq!(r.dropped(), 0, "no drops until the ring wraps");
        }
        for k in 1..=37u64 {
            r.push(RING_CAP as u64 + k, 1, 0, Tag::Sleep, 0, 0);
            assert_eq!(r.dropped(), k);
        }
        assert_eq!(r.pushed(), RING_CAP as u64 + 37);
        let mut out = Vec::new();
        r.collect_into(0, &mut out);
        // Drain + dropped together account for every push.
        assert_eq!(out.len() as u64 + r.dropped(), r.pushed());
    }

    #[test]
    fn drain_after_overwrite_is_timestamp_ordered_with_accurate_drops() {
        // The satellite contract: after heavy overwrite, a drain must
        // still come out timestamp-ordered and the dropped-event count
        // must be exact, with drops + drained == pushed.
        let r = Ring::new();
        let total = 3 * RING_CAP as u64 + 123;
        for i in 0..total {
            // Non-uniform but strictly increasing timestamps, so ordering
            // bugs can't hide behind a constant stride.
            let ts = i * 7 + (i % 3);
            r.push(ts, 1, 0, Tag::RunqPush, i, 0);
        }
        let mut out = Vec::new();
        r.collect_into(0, &mut out);
        assert_eq!(out.len(), RING_CAP);
        for w in out.windows(2) {
            assert!(w[1].ts_ns > w[0].ts_ns, "drain not timestamp-ordered");
            assert_eq!(w[1].a, w[0].a + 1, "drain not in push order");
        }
        assert_eq!(r.dropped(), total - RING_CAP as u64);
        assert_eq!(out.len() as u64 + r.dropped(), r.pushed());
        // The survivors are exactly the newest CAP pushes.
        assert_eq!(out[0].a, total - RING_CAP as u64);
        assert_eq!(out.last().unwrap().a, total - 1);
    }

    #[test]
    fn since_filter_drops_older_timestamps() {
        let r = Ring::new();
        for i in 0..10u64 {
            r.push(i * 100, 1, 0, Tag::Wakeup, i, 0);
        }
        let mut out = Vec::new();
        r.collect_into(500, &mut out);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|e| e.ts_ns >= 500));
    }

    #[test]
    fn concurrent_reader_never_sees_torn_nonsense() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let r = Arc::new(Ring::new());
        let stop = Arc::new(AtomicBool::new(false));
        let (r2, stop2) = (Arc::clone(&r), Arc::clone(&stop));
        let reader = std::thread::spawn(move || {
            let mut out = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                out.clear();
                r2.collect_into(0, &mut out);
                for e in &out {
                    // The writer always stores b == a + 7; any mix of two
                    // writes breaks the pairing.
                    assert_eq!(e.b, e.a + 7, "torn slot escaped the seqlock");
                }
            }
        });
        for i in 0..200_000u64 {
            r.push(i, 1, 0, Tag::Dispatch, i, i + 7);
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
    }
}
