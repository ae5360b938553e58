//! Isolated per-layer probes: each times calls into one layer's public
//! functions with nothing else running. They are per-layer numbers, not a
//! workload; `--workload layers` runs them alone, and every traced run
//! runs them once in a process of their own.
//!
//! One pool LWP unless a probe says otherwise. Each probe reports the
//! median of `REPS` repetitions.

use std::hint::black_box;
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

use sunmt::runq::ShardedRunQueue;
use sunmt::sync::{Mutex, Sema, SyncType};
use sunmt_context::arch::MachContext;
use sunmt_context::stack::StackCache;
use sunmt_lwp::parker::Parker;
use sunmt_lwp::Lwp;
use sunmt_sys::futex::{self, Scope};

use crate::harness::{cycles_to_ns, join_all, median, now, unbound};

const REPS: usize = 5;

/// A probe result: metric name, value, unit.
pub type Probe = (&'static str, f64, &'static str);

/// Median over `REPS` of the nanoseconds per iteration that `run(iters)`
/// takes.
fn per_iter_ns(iters: u64, mut run: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = now();
            run(iters);
            cycles_to_ns((now() - t0) as f64) / iters as f64
        })
        .collect();
    median(&samples)
}

pub fn run_all() -> Vec<Probe> {
    sunmt::init();
    sunmt::set_concurrency(1).expect("set_concurrency");
    vec![
        ("sys.clock_ns", clock(), "ns"),
        ("sys.futex_wake_ns", futex_wake(), "ns"),
        ("context.switch_ns", self_switch(), "ns"),
        ("context.stack_take_put_ns", stack_take_put(), "ns"),
        ("lwp.park_unpark_us", park_unpark() / 1e3, "us"),
        ("core.runq_push_pop_ns", runq_push_pop(), "ns"),
        ("core.yield_ns", yield_pingpong(), "ns"),
        ("sync.mutex_pair_ns", mutex_pair(), "ns"),
        ("sync.pingpong_us", sema_pingpong() / 1e3, "us"),
    ]
}

/// One read of the cycle clock: the span recorder's own cost per stamp.
fn clock() -> f64 {
    per_iter_ns(2_000_000, |n| {
        for _ in 0..n {
            black_box(now());
        }
    })
}

/// `futex::wake` on a word nobody waits on: the kernel entry a wake costs
/// when the user-level sleep queue could not satisfy it.
fn futex_wake() -> f64 {
    let word = AtomicU32::new(0);
    per_iter_ns(100_000, |n| {
        for _ in 0..n {
            let _ = black_box(futex::wake(&word, 1, Scope::Private));
        }
    })
}

/// One register save plus one restore (the Figure 6 `setjmp`/`longjmp`
/// baseline row).
fn self_switch() -> f64 {
    let mut ctx = MachContext::zeroed();
    per_iter_ns(1_000_000, |n| {
        for _ in 0..n {
            sunmt_context::self_switch(&mut ctx);
        }
    })
}

/// One `StackCache::take` + `put` of a cached default stack.
fn stack_take_put() -> f64 {
    let cache = StackCache::new();
    cache.prime(1).expect("map one stack");
    per_iter_ns(500_000, |n| {
        for _ in 0..n {
            let s = cache.take().expect("cached stack");
            cache.put(black_box(s));
        }
    })
}

/// `Parker` round trip between two LWPs (two kernel threads): what it
/// costs to wake an idle LWP and have it wake the waker back.
fn park_unpark() -> f64 {
    per_iter_ns(5_000, |n| {
        let (a, b) = (Arc::new(Parker::new()), Arc::new(Parker::new()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let ping = Lwp::spawn(move || {
            for _ in 0..n {
                b2.unpark();
                a2.park();
            }
        })
        .expect("spawn LWP");
        let pong = Lwp::spawn(move || {
            for _ in 0..n {
                b.park();
                a.unpark();
            }
        })
        .expect("spawn LWP");
        ping.join();
        pong.join();
    })
}

/// One owner-side push + pop on the public `ShardedRunQueue`.
fn runq_push_pop() -> f64 {
    let q: ShardedRunQueue<(i32, u64)> = ShardedRunQueue::new(1);
    per_iter_ns(1_000_000, |n| {
        for i in 0..n {
            q.push(0, (1, i));
            black_box(q.pop(0));
        }
    })
}

/// Two unbound threads on one LWP yielding to each other: one user-level
/// dispatch and one context switch per yield.
fn yield_pingpong() -> f64 {
    per_iter_ns(400_000, |n| {
        let each = n / 2;
        join_all(
            (0..2)
                .map(|_| {
                    unbound(move || {
                        for _ in 0..each {
                            sunmt::yield_now();
                        }
                    })
                })
                .collect(),
        );
    })
}

/// Uncontended `Mutex::enter` + `exit`.
fn mutex_pair() -> f64 {
    let m = Mutex::new(SyncType::DEFAULT);
    per_iter_ns(2_000_000, |n| {
        for _ in 0..n {
            m.enter();
            black_box(&m).exit();
        }
    })
}

/// Figure 6: two unbound threads on one LWP hand a semaphore pair back
/// and forth; one iteration is one round trip (two blocking handoffs).
fn sema_pingpong() -> f64 {
    per_iter_ns(100_000, |n| {
        let s1 = Arc::new(Sema::new(0, SyncType::DEFAULT));
        let s2 = Arc::new(Sema::new(0, SyncType::DEFAULT));
        let (p1, p2) = (Arc::clone(&s1), Arc::clone(&s2));
        join_all(vec![
            unbound(move || {
                for _ in 0..n {
                    p1.v();
                    p2.p();
                }
            }),
            unbound(move || {
                for _ in 0..n {
                    s1.p();
                    s2.v();
                }
            }),
        ]);
    })
}
