//! `spawn_join` — Figure 5 and the array-compute fork/join shape.
//!
//! Four unbound forker threads each loop: spawn 32 `WAIT` children (a
//! child sums a 64-word slice), then `wait` for all of them. Create/exit
//! magazines, run-queue push/pop/steal and context switches do nearly all
//! the work; no synchronization variable, channel or I/O call is made,
//! which makes this the bypass workload for those three layers.
//!
//! Operation = one child created, run and joined (`threads/s`); the
//! latency sample is one fork → all-joined batch. Closed loop, 4 clients.

use std::sync::atomic::{AtomicU64, Ordering};

use sunmt::{CreateFlags, ThreadBuilder, ThreadId};

use super::Prepared;
use crate::harness::{join_all, now, unbound, wait_go, Checksum, Rec, SmallRng};
use crate::span::{sampled, Name, Spans};

pub const FORKERS: usize = 4;
pub const CHILDREN: usize = 32;
pub const SLICE: usize = 64;
/// Children created and joined during set-up so that the measured path
/// takes its stacks and thread objects from the library's caches.
const PRIME: usize = FORKERS * CHILDREN;
const SPAN_SHIFT: u32 = 4;

fn child(flags: CreateFlags, f: impl FnOnce() + Send + 'static) -> ThreadId {
    ThreadBuilder::new()
        .flags(flags)
        .spawn(f)
        .expect("spawn child")
}

pub fn setup(seed: u64) -> Prepared {
    let mut rng = SmallRng::new(seed);
    let mut sum = Checksum::new();
    let words: &'static [u64] = (0..FORKERS * CHILDREN * SLICE)
        .map(|_| {
            let w = rng.next_u64();
            sum.add(w);
            w
        })
        .collect::<Vec<_>>()
        .leak();

    join_all((0..PRIME).map(|_| unbound(|| {})).collect());

    let forkers = (0..FORKERS)
        .map(|f| unbound(move || forker(f, &words[f * CHILDREN * SLICE..][..CHILDREN * SLICE])))
        .collect();
    Prepared {
        checksum: sum.get(),
        sizes: format!("forkers={FORKERS} children={CHILDREN} slice_words={SLICE}"),
        op_unit: "threads/s",
        span_shift: SPAN_SHIFT,
        finish: Box::new(move || {
            join_all(forkers);
            0
        }),
    }
}

fn forker(f: usize, words: &'static [u64]) {
    let expected: Vec<u64> = words
        .chunks(SLICE)
        .map(|s| s.iter().fold(0u64, |a, w| a.wrapping_add(*w)))
        .collect();
    let results: &'static [AtomicU64] = (0..CHILDREN)
        .map(|_| AtomicU64::new(0))
        .collect::<Vec<_>>()
        .leak();
    let mut ids = Vec::with_capacity(CHILDREN);
    let mut spans = Spans::new();
    wait_go();
    let mut rec = Rec::new();
    let mut seq = 0u64;
    loop {
        let on = sampled(seq, SPAN_SHIFT);
        let op = ((f as u64) << 48) | seq;
        let t0 = now();
        for (slice, out) in words.chunks(SLICE).zip(results) {
            ids.push(spans.call(on, Name::CoreCreate, 0, op, || {
                child(CreateFlags::WAIT, move || {
                    // The batch number is folded in so that a result left
                    // over from an earlier batch cannot pass the oracle.
                    let s = slice.iter().fold(seq, |a, w| a.wrapping_add(*w));
                    out.store(s, Ordering::Relaxed);
                })
            }));
        }
        for id in ids.drain(..) {
            spans.call(on, Name::CoreJoin, 0, op, || {
                sunmt::wait(Some(id)).expect("join child")
            });
        }
        let t1 = now();
        if on {
            spans.push(Name::Op, 0, op, t0, t1);
        }
        let failed = results
            .iter()
            .zip(&expected)
            .filter(|(got, want)| got.load(Ordering::Relaxed) != want.wrapping_add(seq))
            .count() as u64;
        if !rec.op(t0, t1, CHILDREN as u64, failed) {
            return;
        }
        seq += 1;
    }
}
