//! The sharded dispatcher structure: steal ordering and conservation.
//!
//! The unit tests in `sunmt::runq` cover single operations; these
//! integration tests pin down the two properties the scheduler actually
//! leans on. First, steal ordering is *deterministic*: victim selection
//! follows the advertised top priorities and items leave a victim in the
//! same order its owner would have dispatched them, so "highest priority
//! runnable thread runs" survives sharding. Second, conservation: under
//! genuinely concurrent pushes, pops, and steals, no item is lost or
//! dispatched twice and the lock-free total (`len()`, what
//! `sunmt::stats().runnable` reports) agrees with the per-shard truth at
//! every quiescent point.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sunmt::runq::{Placement, RunQueue, ShardedRunQueue, SHARD_CAP};
use sunmt::{CreateFlags, ThreadBuilder};

#[test]
fn steal_order_follows_priority_then_fifo() {
    let q: ShardedRunQueue<(i32, u64)> = ShardedRunQueue::new(4);
    // Shard 1: two items at priority 7 (FIFO pair), one at 2.
    q.push(1, (7, 10));
    q.push(1, (7, 11));
    q.push(1, (2, 12));
    // Shard 2: a single priority-9 item; shard 3: priority 5.
    q.push(2, (9, 20));
    q.push(3, (5, 30));

    // A thief on shard 0 drains the world in strict priority order, FIFO
    // within a level, re-picking the best victim every trip.
    let order: Vec<u64> = std::iter::from_fn(|| q.steal(0))
        .map(|(_, id)| id)
        .collect();
    assert_eq!(order, vec![20, 10, 11, 30, 12]);
    assert_eq!(q.steal_count(), 5);
    assert!(q.is_empty());
}

#[test]
fn steal_order_is_reproducible() {
    // Same seeded layout, same steal sequence, every time — the property
    // that makes a dispatch-order bug reportable.
    let run = || {
        let q: ShardedRunQueue<(i32, u64)> = ShardedRunQueue::new(3);
        for (shard, prio, id) in [(1, 4, 1u64), (2, 4, 2), (1, 8, 3), (2, 1, 4), (1, 4, 5)] {
            q.push(shard, (prio, id));
        }
        std::iter::from_fn(|| q.steal(0))
            .map(|(_, id)| id)
            .collect::<Vec<_>>()
    };
    let first = run();
    assert_eq!(first, run());
    assert_eq!(first, run());
}

#[test]
fn pop_prefers_home_unless_injection_outranks() {
    let q: ShardedRunQueue<(i32, u64)> = ShardedRunQueue::new(2);
    q.push(1, (9, 1)); // highest priority, but another shard's
    q.push_inject((5, 2));
    q.push(0, (1, 3)); // lowest priority, the home shard's
                       // The injected item outranks the home shard's top, so it dispatches
                       // first (a preempted thread requeues on its own shard — taking home
                       // blindly would dispatch it ahead of the thread that preempted it);
                       // then the home shard, then the steal. Other shards never outrank
                       // either: their own LWPs service them.
    assert_eq!(q.pop(0), Some((5, 2)));
    assert_eq!(q.pop(0), Some((1, 3)));
    assert_eq!(q.pop(0), Some((9, 1)));
    assert_eq!(q.steal_count(), 1);
    // With the ranks reversed, home keeps its dispatch-locality win.
    q.push(0, (5, 4));
    q.push_inject((5, 5));
    assert_eq!(q.pop(0), Some((5, 4)));
    assert_eq!(q.pop(0), Some((5, 5)));
}

#[test]
fn conservation_under_concurrent_push_pop_steal() {
    // The property test: P producers push IDS items each (cross-shard
    // pushes and periodic injection included), C consumers pop-or-steal
    // until the whole batch is accounted for. Every id must be seen
    // exactly once, and when the dust settles the atomic total must be
    // zero and agree with what the consumers took.
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 4;
    const IDS: u64 = 2_000;

    for round in 0..3u64 {
        let q: Arc<ShardedRunQueue<(i32, u64)>> = Arc::new(ShardedRunQueue::new(CONSUMERS));
        let taken = Arc::new(AtomicU64::new(0));
        let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let home = q.assign_shard();
                    for i in 0..IDS {
                        let id = (p as u64) * IDS + i;
                        let prio = ((id ^ round) % 11) as i32;
                        if i % 16 == 15 {
                            q.push_inject((prio, id));
                        } else if i % 4 == 3 {
                            q.push((home + 1) % q.num_shards(), (prio, id));
                        } else {
                            q.push(home, (prio, id));
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|c| {
                let q = Arc::clone(&q);
                let taken = Arc::clone(&taken);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    let total = PRODUCERS as u64 * IDS;
                    let mut mine = Vec::new();
                    while taken.load(Ordering::Acquire) < total {
                        if let Some((_, id)) = q.pop(c) {
                            taken.fetch_add(1, Ordering::AcqRel);
                            mine.push(id);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    let mut seen = seen.lock().unwrap();
                    for id in mine {
                        assert!(seen.insert(id), "id {id} dispatched twice");
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().expect("producer");
        }
        for h in consumers {
            h.join().expect("consumer");
        }

        assert_eq!(
            seen.lock().unwrap().len() as u64,
            PRODUCERS as u64 * IDS,
            "round {round}: items lost in the queue"
        );
        assert_eq!(q.len(), 0, "round {round}: atomic total out of sync");
        assert!(
            q.pop(0).is_none(),
            "round {round}: queue not actually empty"
        );
        assert!(q.inject_count() >= PRODUCERS as u64 * (IDS / 16));
    }
}

#[test]
fn overflow_spill_keeps_the_total_exact() {
    // Fill a shard past SHARD_CAP so pushes spill to injection, then
    // drain from a different home shard; len() must track exactly.
    let q: ShardedRunQueue<(i32, u64)> = ShardedRunQueue::new(2);
    let n = SHARD_CAP as u64 + 50;
    let mut spilled = 0;
    for i in 0..n {
        if q.push(0, (1, i)) == Placement::Injected {
            spilled += 1;
        }
    }
    assert_eq!(spilled, 50);
    assert_eq!(q.len(), n as usize);
    let mut got = 0;
    while q.pop(1).is_some() {
        got += 1;
    }
    assert_eq!(got, n);
    assert_eq!(q.len(), 0);
}

/// The two tests that run threads on the real library take turns: the
/// first asserts the process-wide runnable count, which the second's
/// yield loop keeps above zero.
static LIBRARY: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn scheduler_runnable_count_settles_to_zero_across_shards() {
    let _serial = LIBRARY.lock().unwrap_or_else(|e| e.into_inner());
    // Through the real library: a burst of unbound creates exercises the
    // sharded dispatch path (the injection counter moves — creates come
    // from a context without a home shard or from other LWPs' shards),
    // and once everything is joined the cross-shard runnable total that
    // stats() reads off the atomic must be exactly zero.
    sunmt::init();
    let before = sunmt::stats();
    for _ in 0..4 {
        let ids: Vec<_> = (0..64)
            .map(|_| {
                ThreadBuilder::new()
                    .flags(CreateFlags::WAIT)
                    .spawn(std::thread::yield_now)
                    .expect("spawn")
            })
            .collect();
        for id in ids {
            sunmt::wait(Some(id)).expect("wait");
        }
    }
    let after = sunmt::stats();
    assert_eq!(after.runnable, 0, "runnable total must drain to zero");
    assert!(
        after.dispatches > before.dispatches,
        "the burst must have gone through the dispatcher"
    );
    assert!(
        after.injects > before.injects || after.steals > before.steals,
        "the sharded paths (injection or steal) never ran"
    );
}

#[test]
fn injected_work_is_not_starved_by_a_yield_loop() {
    let _serial = LIBRARY.lock().unwrap_or_else(|e| e.into_inner());
    // Regression: a thread in a yield loop re-queues to its LWP's own
    // shard on every dispatch, so the shard never empties; creates from
    // this adopted (non-pool) context arrive via the injection queue and
    // must still run — the FAIR_EVERY pop rotation guarantees it. Before
    // that rotation existed this test (and the signal-broadcast test)
    // hung forever on a single-LWP pool.
    sunmt::init();
    let stop = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&stop);
    let spinner = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            while s.load(Ordering::SeqCst) == 0 {
                sunmt::yield_now();
            }
        })
        .expect("spawn spinner");
    for _ in 0..8 {
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(|| {})
            .expect("spawn");
        sunmt::wait(Some(id)).expect("injected thread starved behind the yield loop");
    }
    stop.store(1, Ordering::SeqCst);
    sunmt::wait(Some(spinner)).expect("wait spinner");
}

#[test]
fn a_blocked_owners_queued_work_is_run_by_a_busy_lwp() {
    let _serial = LIBRARY.lock().unwrap_or_else(|e| e.into_inner());
    // Regression: thread A, on LWP X, creates W, which is queued on X's
    // shard, and then blocks in the kernel on a socket that only W writes.
    // LWP Y runs a yield loop, so its own shard never empties and its pops
    // never reach the ordinary steal; one pool LWP of two is blocked, so
    // SIGWAITING grows nothing. Only the fairness tick's steal from a
    // stalled shard runs W.
    sunmt::set_concurrency(2).expect("set_concurrency");
    let stop = Arc::new(AtomicU64::new(0));
    let spinner_lwp = Arc::new(AtomicU64::new(0));
    let (s, lwp) = (Arc::clone(&stop), Arc::clone(&spinner_lwp));
    let spinner = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            while s.load(Ordering::SeqCst) == 0 {
                lwp.store(u64::from(sunmt_sys::task::gettid()), Ordering::SeqCst);
                sunmt::yield_now();
            }
        })
        .expect("spawn spinner");
    while spinner_lwp.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }

    let (mut rx, tx) = UnixStream::pair().expect("socketpair");
    let unwedge = tx.try_clone().expect("clone socket");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let lwp = Arc::clone(&spinner_lwp);
    let a = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            // Get off the spinner's LWP: a yield wakes the idle one, which
            // steals whichever of the two it finds first.
            let on_spinner = || u64::from(sunmt_sys::task::gettid()) == lwp.load(Ordering::SeqCst);
            for _ in 0..1_000 {
                if !on_spinner() {
                    break;
                }
                sunmt::yield_now();
            }
            let mut tx = tx;
            let w = ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    let _ = tx.write_all(&[1]);
                })
                .expect("spawn writer");
            let mut byte = [0u8];
            sunmt::blocking(|| rx.read_exact(&mut byte)).expect("read");
            sunmt::wait(Some(w)).expect("wait writer");
            let _ = done_tx.send(());
        })
        .expect("spawn reader");

    let outcome = done_rx.recv_timeout(Duration::from_secs(10));
    stop.store(1, Ordering::SeqCst);
    if outcome.is_err() {
        // Unwedge the reader so the process can wind down, then fail.
        let _ = (&unwedge).write_all(&[1]);
        panic!("work queued behind a blocked LWP never ran beside a yield loop");
    }
    sunmt::wait(Some(a)).expect("wait reader");
    sunmt::wait(Some(spinner)).expect("wait spinner");
    sunmt::set_concurrency(0).expect("set_concurrency(0)");
}

#[test]
fn single_level_queue_and_shards_agree_on_order() {
    // Differential check: with one shard and no injection, the sharded
    // structure must dispatch in exactly the order the plain multilevel
    // queue does.
    let mut plain: RunQueue<(i32, u64)> = RunQueue::new();
    let sharded: ShardedRunQueue<(i32, u64)> = ShardedRunQueue::new(1);
    let items = [(3, 1u64), (8, 2), (3, 3), (0, 4), (8, 5), (5, 6)];
    for it in items {
        plain.push(it);
        sharded.push(0, it);
    }
    loop {
        let a = plain.pop();
        let b = sharded.pop(0);
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}
