//! The per-lock-site contention table (the `lockstat` half of the crate).
//!
//! A fixed, statically allocated open-addressed hash table keyed by the
//! lock's word address. Slots are claimed with a single CAS the first time
//! a lock is seen; after that every update is a relaxed `fetch_add` on the
//! claimed slot — no allocation, no locking, ever, exactly like the
//! kernel's `lockstat` per-site records. When the table fills (or a probe
//! chain exceeds its bound) updates fall into a shared overflow slot so
//! nothing is silently lost, only coarsened.
//!
//! The hold-time clock (`hold_t0`) lives in the site, not the mutex:
//! `sunmt_sync::Mutex` is `repr(C)`, zero-valid and ABI-frozen, so it
//! cannot grow a timestamp field. Writing `hold_t0` is race-free because
//! only the lock holder touches it — the mutex itself is the exclusion.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use sunmt_trace::{clock, counting, record, Hs};

/// Capacity of the site table (slot 0 is the shared overflow slot).
pub const NSITES: usize = 512;

/// How many linear-probe steps a lookup takes before giving up and using
/// the overflow slot.
const PROBE_LIMIT: usize = 16;

pub(crate) struct Site {
    /// Lock word address; 0 = unclaimed. The overflow slot stays 0.
    pub(crate) addr: AtomicUsize,
    pub(crate) acquires: AtomicU64,
    pub(crate) contended: AtomicU64,
    pub(crate) spin_acquires: AtomicU64,
    pub(crate) parks: AtomicU64,
    pub(crate) spin_iters: AtomicU64,
    pub(crate) block_cycles: AtomicU64,
    pub(crate) block_max: AtomicU64,
    pub(crate) hold_cycles: AtomicU64,
    pub(crate) hold_count: AtomicU64,
    /// Cycle timestamp of the in-progress hold; written only by the
    /// current lock holder, 0 when nobody holds (or stats were off at
    /// acquire, which makes the matching release a no-op).
    pub(crate) hold_t0: AtomicU64,
}

impl Site {
    const fn new() -> Site {
        Site {
            addr: AtomicUsize::new(0),
            acquires: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            spin_acquires: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            spin_iters: AtomicU64::new(0),
            block_cycles: AtomicU64::new(0),
            block_max: AtomicU64::new(0),
            hold_cycles: AtomicU64::new(0),
            hold_count: AtomicU64::new(0),
            hold_t0: AtomicU64::new(0),
        }
    }
}

static TABLE: [Site; NSITES] = [const { Site::new() }; NSITES];

/// Fibonacci-hashes a lock address into the table (same multiplier the
/// sleep-queue shards use).
#[inline]
fn slot_hash(addr: usize) -> usize {
    (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) % NSITES
}

/// Finds (or claims) the site record for a lock address. Falls back to
/// the shared overflow slot when the neighborhood is full.
#[inline]
fn site_for(addr: usize) -> &'static Site {
    let mut h = slot_hash(addr);
    for _ in 0..PROBE_LIMIT {
        if h != 0 {
            let s = &TABLE[h];
            let cur = s.addr.load(Relaxed);
            if cur == addr {
                return s;
            }
            if cur == 0 && s.addr.compare_exchange(0, addr, Relaxed, Relaxed).is_ok() {
                return s;
            }
        }
        h = (h + 1) % NSITES;
    }
    &TABLE[0]
}

/// An uncontended (fast-path) acquire: counts it and starts the hold
/// clock. Call only while holding the lock.
#[inline]
pub fn acquired(addr: usize) {
    if !counting() {
        return;
    }
    let s = site_for(addr);
    s.acquires.fetch_add(1, Relaxed);
    s.hold_t0.store(clock::now_cycles(), Relaxed);
}

/// Entry to the contended slow path. Returns the cycle timestamp the
/// matching [`acquired_slow`] charges block time against (0 if disabled).
#[inline]
pub fn slow_begin(addr: usize) -> u64 {
    if !counting() {
        return 0;
    }
    site_for(addr).contended.fetch_add(1, Relaxed);
    clock::now_cycles()
}

/// Accounts an adaptive-spin phase: `iters` loop iterations, which either
/// acquired the lock or fell through to the sleep path.
#[inline]
pub fn spun(addr: usize, iters: u64, acquired: bool) {
    if !counting() {
        return;
    }
    let s = site_for(addr);
    s.spin_iters.fetch_add(iters, Relaxed);
    if acquired {
        s.spin_acquires.fetch_add(1, Relaxed);
    }
    record(Hs::MutexSpin, iters);
}

/// One futex park on the sleep path.
#[inline]
pub fn parked(addr: usize) {
    if !counting() {
        return;
    }
    site_for(addr).parks.fetch_add(1, Relaxed);
}

/// Slow-path acquire completed: charges block time since `t0` (from
/// [`slow_begin`]) and starts the hold clock. `t0 == 0` (stats were off
/// at entry) records the acquire but no block time.
#[inline]
pub fn acquired_slow(addr: usize, t0: u64) {
    if !counting() {
        return;
    }
    let s = site_for(addr);
    let now = clock::now_cycles();
    if t0 != 0 {
        let d = now.saturating_sub(t0);
        s.block_cycles.fetch_add(d, Relaxed);
        s.block_max.fetch_max(d, Relaxed);
        record(Hs::MutexBlock, d);
    }
    s.acquires.fetch_add(1, Relaxed);
    s.hold_t0.store(now, Relaxed);
}

/// Closes a generic blocking wait (readers/writer lock, semaphore):
/// charges block time since `t0` (from [`slow_begin`]) to the site
/// without acquire/hold tracking, which has no meaning for shared or
/// counting primitives. No-op when `t0 == 0`.
#[inline]
pub fn block_end(addr: usize, t0: u64) {
    if t0 == 0 || !counting() {
        return;
    }
    let s = site_for(addr);
    let d = clock::now_cycles().saturating_sub(t0);
    s.block_cycles.fetch_add(d, Relaxed);
    s.block_max.fetch_max(d, Relaxed);
}

/// Release: closes the hold interval opened by [`acquired`] /
/// [`acquired_slow`]. Call while still holding the lock (before the word
/// is released) so `hold_t0` stays single-writer.
#[inline]
pub fn released(addr: usize) {
    if !counting() {
        return;
    }
    let s = site_for(addr);
    let t0 = s.hold_t0.swap(0, Relaxed);
    if t0 != 0 {
        let d = clock::now_cycles().saturating_sub(t0);
        s.hold_cycles.fetch_add(d, Relaxed);
        s.hold_count.fetch_add(1, Relaxed);
        record(Hs::MutexHold, d);
    }
}

/// One lock site's aggregated statistics, with cycle totals already
/// converted to nanoseconds.
#[derive(Clone, Debug)]
pub struct LockSnapshot {
    /// The lock word's address (0 for the shared overflow slot).
    pub addr: usize,
    /// Total successful acquires (fast + slow path).
    pub acquires: u64,
    /// Slow-path (contended) entries.
    pub contended: u64,
    /// Contended entries resolved by spinning alone.
    pub spin_acquires: u64,
    /// Futex parks taken on the sleep path.
    pub parks: u64,
    /// Total adaptive-spin loop iterations.
    pub spin_iters: u64,
    /// Total nanoseconds spent blocked (slow-path entry to acquire).
    pub block_ns: f64,
    /// Longest single block, nanoseconds.
    pub block_max_ns: f64,
    /// Total nanoseconds the lock was held (closed holds only).
    pub hold_ns: f64,
    /// Closed hold intervals.
    pub hold_count: u64,
}

impl LockSnapshot {
    /// Mean hold time in nanoseconds (0 if no closed holds).
    pub fn avg_hold_ns(&self) -> f64 {
        if self.hold_count == 0 {
            0.0
        } else {
            self.hold_ns / self.hold_count as f64
        }
    }

    /// Fraction of contended entries resolved by spinning (0..=1).
    pub fn spin_ratio(&self) -> f64 {
        if self.contended == 0 {
            0.0
        } else {
            self.spin_acquires as f64 / self.contended as f64
        }
    }
}

/// Snapshot of every active site, sorted by total block time descending
/// (the lockstat ordering). The overflow slot appears only if it saw
/// traffic.
pub fn snapshot() -> Vec<LockSnapshot> {
    let mut out = Vec::new();
    for (i, s) in TABLE.iter().enumerate() {
        let addr = s.addr.load(Relaxed);
        let acquires = s.acquires.load(Relaxed);
        if (addr == 0 && i != 0) || (acquires == 0 && s.contended.load(Relaxed) == 0) {
            continue;
        }
        out.push(LockSnapshot {
            addr,
            acquires,
            contended: s.contended.load(Relaxed),
            spin_acquires: s.spin_acquires.load(Relaxed),
            parks: s.parks.load(Relaxed),
            spin_iters: s.spin_iters.load(Relaxed),
            block_ns: clock::cycles_to_ns(s.block_cycles.load(Relaxed)),
            block_max_ns: clock::cycles_to_ns(s.block_max.load(Relaxed)),
            hold_ns: clock::cycles_to_ns(s.hold_cycles.load(Relaxed)),
            hold_count: s.hold_count.load(Relaxed),
        });
    }
    out.sort_by(|a, b| b.block_ns.total_cmp(&a.block_ns));
    out
}

/// Zeroes the whole table (start of a stats epoch). In-flight holds lose
/// their `hold_t0`, so their eventual release records nothing — by design.
pub(crate) fn reset() {
    for s in &TABLE {
        s.addr.store(0, Relaxed);
        for c in [
            &s.acquires,
            &s.contended,
            &s.spin_acquires,
            &s.parks,
            &s.spin_iters,
            &s.block_cycles,
            &s.block_max,
            &s.hold_cycles,
            &s.hold_count,
            &s.hold_t0,
        ] {
            c.store(0, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_addresses_get_distinct_slots() {
        let _g = crate::test_lock();
        crate::enable();
        let a = 0x1000usize;
        let b = 0x2008usize;
        acquired(a);
        released(a);
        acquired(b);
        acquired(b); // second acquire without release: reuses the slot
        crate::disable();
        let snap = snapshot();
        let sa = snap.iter().find(|s| s.addr == a).expect("site a");
        let sb = snap.iter().find(|s| s.addr == b).expect("site b");
        assert_eq!(sa.acquires, 1);
        assert_eq!(sa.hold_count, 1);
        assert!(sa.hold_ns >= 0.0);
        assert_eq!(sb.acquires, 2);
    }

    #[test]
    fn table_exhaustion_coarsens_into_the_overflow_slot() {
        let _g = crate::test_lock();
        crate::enable();
        // Far more distinct addresses than slots: the tail must land in
        // overflow rather than disappearing.
        let n = 4 * NSITES;
        for i in 0..n {
            acquired(0x10_0000 + i * 8);
        }
        crate::disable();
        let snap = snapshot();
        let total: u64 = snap.iter().map(|s| s.acquires).sum();
        assert_eq!(total, n as u64, "acquires lost during overflow");
        let overflow = snap.iter().find(|s| s.addr == 0).expect("overflow slot");
        assert!(overflow.acquires > 0);
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = crate::test_lock();
        crate::enable();
        crate::disable();
        acquired(0xdead_0000);
        assert!(snapshot().iter().all(|s| s.addr != 0xdead_0000));
    }
}
