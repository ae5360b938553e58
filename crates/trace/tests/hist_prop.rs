//! Property tests for the log2 histogram (ISSUE 6 satellite): every
//! recorded value must land in a bucket whose bounds contain it, and the
//! interpolated quantile estimates must stay within one bucket of the
//! exact sample quantile. No external proptest crate — a seeded xorshift
//! generator drives many random distributions deterministically.

use sunmt_trace::hist::{bucket_hi, bucket_lo, bucket_of, Hist, NBUCKETS};

/// xorshift64*: tiny, seedable, good enough to sweep magnitudes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value whose magnitude (bit width) is itself uniform, so every
    /// bucket gets exercised, not just the 64-bit ones.
    fn value(&mut self) -> u64 {
        let bits = self.next() % 65;
        if bits == 0 {
            0
        } else {
            let v = self.next();
            (v >> (64 - bits)).max(1)
        }
    }
}

#[test]
fn every_value_lands_in_a_bucket_containing_it() {
    let mut rng = Rng(0x5eed_0001);
    for _ in 0..200_000 {
        let v = rng.value();
        let b = bucket_of(v);
        assert!(b < NBUCKETS, "bucket index {b} out of range for {v}");
        assert!(bucket_lo(b) <= v, "v={v} below lo of bucket {b}");
        // bucket_hi saturates at u64::MAX for the top bucket, making the
        // bound inclusive there.
        assert!(
            v < bucket_hi(b) || (b == NBUCKETS - 1 && v == u64::MAX),
            "v={v} not below hi of bucket {b}"
        );
    }
}

#[test]
fn quantile_estimates_stay_within_one_bucket_of_exact() {
    for seed in [1u64, 42, 0xdead_beef, 0x5eed_cafe, 7_777_777] {
        let mut rng = Rng(seed);
        let n = 2000 + (rng.next() % 3000) as usize;
        let mut h = Hist::default();
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.value();
            h.record(v);
            vals.push(v);
        }
        vals.sort_unstable();
        assert_eq!(h.count(), n as u64);
        assert_eq!(h.max, *vals.last().unwrap());
        for q in [0.5, 0.9, 0.99, 1.0] {
            let exact = vals[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
            let est = h.quantile(q);
            // "Within one bucket": the estimate's bucket index is within
            // 1 of the exact sample quantile's bucket index.
            let be = bucket_of(exact) as i64;
            let bq = bucket_of(est.min(u64::MAX as f64) as u64) as i64;
            assert!(
                (be - bq).abs() <= 1,
                "seed {seed} q={q}: exact {exact} (bucket {be}) vs est {est} (bucket {bq})"
            );
        }
    }
}

#[test]
fn quantiles_are_monotone_in_q() {
    let mut rng = Rng(0xfeed_f00d);
    let mut h = Hist::default();
    for _ in 0..5000 {
        h.record(rng.value());
    }
    let qs: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
    let mut last = 0.0f64;
    for q in qs {
        let v = h.quantile(q);
        assert!(v >= last, "quantile not monotone at q={q}: {v} < {last}");
        last = v;
    }
    assert!(last <= h.max as f64 + 0.5);
}

#[test]
fn point_masses_are_recovered_exactly_to_bucket_resolution() {
    for point in [0u64, 1, 7, 100, 4096, 1 << 40] {
        let mut h = Hist::default();
        for _ in 0..999 {
            h.record(point);
        }
        let b = bucket_of(point);
        for q in [0.5, 0.99] {
            let est = h.quantile(q);
            assert!(
                bucket_lo(b) as f64 <= est && est <= bucket_hi(b) as f64,
                "point {point}: q={q} est {est} escaped bucket {b}"
            );
        }
    }
}
