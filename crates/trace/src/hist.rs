//! Log2-bucketed histograms and the histogram vocabulary ([`Hs`]).
//!
//! A recorded value `v` lands in bucket `64 - v.leading_zeros()`: bucket 0
//! holds exactly `{0}` and bucket `i >= 1` holds `[2^(i-1), 2^i)`. That
//! makes recording one `leading_zeros` plus an array increment — no
//! floating point, no allocation — while still supporting p50/p90/p99
//! estimates by linear interpolation inside the winning bucket, accurate
//! to within one power-of-two bucket by construction.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const NBUCKETS: usize = 65;

/// Bucket index for a value (see module docs for the bucket bounds).
#[inline(always)]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lo(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Exclusive upper bound of bucket `i` (saturating for the last bucket).
pub fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 1,
        64 => u64::MAX,
        _ => 1u64 << i,
    }
}

/// A plain (non-atomic) histogram: the merge/snapshot representation, and
/// the reference implementation the property tests exercise.
#[derive(Clone, Debug)]
pub struct Hist {
    /// Per-bucket observation counts.
    pub buckets: [u64; NBUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: [0; NBUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of the recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (`0.0 < q <= 1.0`) by walking the
    /// cumulative bucket counts and interpolating linearly inside the
    /// bucket where the rank lands. The max observation caps the estimate
    /// so p99 of a single-bucket distribution never exceeds the true max.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = (q * n as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let cum = seen + c;
            if (cum as f64) >= rank {
                let lo = bucket_lo(i) as f64;
                let hi = bucket_hi(i) as f64;
                let frac = (rank - seen as f64) / c as f64;
                let est = lo + (hi - lo) * frac;
                return est.min(self.max as f64);
            }
            seen = cum;
        }
        self.max as f64
    }
}

/// What a histogram's recorded values mean, which fixes how reports
/// convert them for display.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Unit {
    /// Raw cycle deltas from [`crate::clock::now_cycles`]; reports
    /// convert to nanoseconds.
    Cycles,
    /// Dimensionless counts (e.g. spin iterations); reported as-is.
    Count,
}

vocabulary! {
    /// Latency/size histogram vocabulary.
    pub enum Hs: usize, NHISTS {
        /// Runnable-to-dispatched wait: `push_runnable` to `run_one` pickup.
        RunqWait => "runq_wait",
        /// Mutex hold time (acquire to release), all sites merged.
        MutexHold => "mutex_hold",
        /// Mutex block time (contended entry to acquire), all sites merged.
        MutexBlock => "mutex_block",
        /// Adaptive-mutex spin iterations per contended entry.
        MutexSpin => "mutex_spin",
        /// I/O wait: thread parks for readiness until woken.
        IoWait => "io_wait",
        /// Poller residence in `epoll_wait`.
        PollerWait => "poller_wait",
        /// Calibration histogram for the `abl_stat_overhead` bench.
        BenchLat => "bench_lat",
        /// Channel send latency (call to slot committed), all channels merged.
        ChanSend => "chan_send",
        /// Channel receive latency (call to message out, including any park).
        ChanRecv => "chan_recv",
        /// Channel queue depth observed after each send.
        ChanDepth => "chan_depth",
    }
}

impl Hs {
    /// What the recorded values are.
    pub fn unit(self) -> Unit {
        match self {
            Hs::MutexSpin | Hs::ChanDepth => Unit::Count,
            _ => Unit::Cycles,
        }
    }
}

/// One histogram's atomic cells in an LWP's block. Single-writer (the
/// owning LWP) with relaxed load+store increments; readers race benignly.
pub(crate) struct HistCells {
    buckets: [AtomicU64; NBUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    pub(crate) const fn new() -> HistCells {
        HistCells {
            buckets: [const { AtomicU64::new(0) }; NBUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn record(&self, v: u64) {
        let b = &self.buckets[bucket_of(v)];
        b.store(b.load(Relaxed).wrapping_add(1), Relaxed);
        self.sum
            .store(self.sum.load(Relaxed).saturating_add(v), Relaxed);
        if v > self.max.load(Relaxed) {
            self.max.store(v, Relaxed);
        }
    }

    pub(crate) fn add_into(&self, out: &mut Hist) {
        for (o, b) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            *o += b.load(Relaxed);
        }
        out.sum = out.sum.saturating_add(self.sum.load(Relaxed));
        out.max = out.max.max(self.max.load(Relaxed));
    }

    pub(crate) fn reset(&self) {
        for c in self.buckets.iter().chain([&self.sum, &self.max]) {
            c.store(0, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(0), 1);
        for i in 1..NBUCKETS {
            assert_eq!(bucket_lo(i), bucket_hi(i - 1), "gap/overlap at {i}");
        }
        assert_eq!(bucket_hi(NBUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_of_matches_bounds_at_edges() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(bucket_lo(b) <= v, "v={v} below bucket {b}");
            assert!(
                v < bucket_hi(b) || (b == 64 && v == u64::MAX),
                "v={v} above bucket {b}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_point_mass_are_the_point_bucket() {
        let mut h = Hist::default();
        for _ in 0..1000 {
            h.record(100);
        }
        for q in [0.5, 0.9, 0.99] {
            let est = h.quantile(q);
            assert!(
                (64.0..=128.0).contains(&est),
                "q={q} est={est} outside [64,128]"
            );
        }
        assert_eq!(h.max, 100);
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(5);
        b.record(500);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum, 512);
        assert_eq!(a.max, 500);
    }

    #[test]
    fn vocabulary_is_indexed_by_discriminant() {
        for (i, h) in Hs::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn empty_hist_quantile_is_zero() {
        assert_eq!(Hist::default().quantile(0.99), 0.0);
    }
}
