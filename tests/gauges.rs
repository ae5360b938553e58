//! The always-on statistics are counted per LWP (`sunmt_trace::gauge`).
//!
//! With statistics and tracing off, the channel and scheduler counts must
//! still be exact once the senders are joined; the per-LWP blocks that
//! hold them must be recycled as LWPs exit; and the idle handshake that
//! lets an enqueue skip the idle lock must never lose a wake.
//!
//! The tests take turns: the first asserts exact deltas of process-wide
//! totals, which the others would move.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sunos_mt::chan;
use sunos_mt::sync::{Sema, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `"chan"` stat source's `sends` and `recvs`.
fn chan_counts() -> (u64, u64) {
    let snap = sunos_mt::stat::snapshot();
    let (_, chan) = snap
        .sources
        .iter()
        .find(|(name, _)| *name == "chan")
        .expect("the first channel registers the chan source");
    let get = |k: &str| {
        chan.iter()
            .find(|(n, _)| n == k)
            .unwrap_or_else(|| panic!("missing chan gauge {k}"))
            .1
    };
    (get("sends"), get("recvs"))
}

#[test]
fn counts_are_exact_with_statistics_off() {
    const PER_SENDER: u64 = 10_000;
    let _serial = serial();
    threads::init();
    assert!(!sunos_mt::trace::enabled(), "nothing here turns probes on");
    // Warm the creating thread's magazine: the waiter retires a joined
    // thread's object into it, and the next create reuses it.
    let warm = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(|| {})
        .expect("spawn");
    threads::wait(Some(warm)).expect("wait");

    let (tx, rx) = chan::bounded::<u64>(64);
    let (sends0, recvs0) = chan_counts();
    let sched0 = threads::stats();
    let senders: Vec<_> = (0..8)
        .map(|i| {
            let tx = tx.clone();
            let flags = if i % 2 == 0 {
                CreateFlags::WAIT | CreateFlags::BIND_LWP
            } else {
                CreateFlags::WAIT
            };
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    for n in 0..PER_SENDER {
                        tx.send(n).expect("receiver alive");
                    }
                })
                .expect("spawn sender")
        })
        .collect();
    drop(tx);
    let mut got = 0u64;
    for _ in rx.iter() {
        got += 1;
    }
    for id in senders {
        threads::wait(Some(id)).expect("wait sender");
    }
    let (sends1, recvs1) = chan_counts();
    let sched1 = threads::stats();
    assert_eq!(got, 8 * PER_SENDER);
    assert_eq!(sends1 - sends0, 8 * PER_SENDER, "chan sends");
    assert_eq!(recvs1 - recvs0, 8 * PER_SENDER, "chan recvs");
    assert!(sched1.dispatches > sched0.dispatches, "no dispatch counted");
    assert!(
        sched1.magazine_hits > sched0.magazine_hits,
        "no magazine hit counted"
    );
}

#[test]
fn sequential_lwps_recycle_their_gauge_blocks() {
    let _serial = serial();
    threads::init();
    let (tx, rx) = chan::unbounded::<u32>();
    // One cycle before measuring, so this thread holds its own block.
    let cycle = |i: u32| {
        let tx = tx.clone();
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT | CreateFlags::BIND_LWP)
            .spawn(move || tx.send(i).expect("receiver alive"))
            .expect("spawn bound thread");
        threads::wait(Some(id)).expect("wait bound thread");
        assert_eq!(rx.recv(), Ok(i));
    };
    cycle(0);
    let before = sunmt_trace::gauge::blocks();
    for i in 1..=200 {
        cycle(i);
    }
    // The cycles have one bound LWP alive at a time, plus the one whose
    // TLS teardown may still be running when the next starts: without
    // recycling the registry would hold 200 more blocks.
    let after = sunmt_trace::gauge::blocks();
    assert!(
        after <= before + 4,
        "200 sequential LWPs grew the gauge registry from {before} to {after} blocks"
    );
}

/// A bound thread posts an unbound sleeper `ROUNDS` times, waiting for
/// each post to be taken, on a pool of `lwps`. Every post lands on the
/// injection queue of a pool whose LWPs are idle, so each one crosses the
/// idle handshake; a lost wake stops the exchange and the watchdog fails
/// the test instead of letting it hang.
fn idle_handshake(lwps: usize) {
    const ROUNDS: u64 = 100_000;
    threads::set_concurrency(lwps).expect("set concurrency");
    let go = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let back = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let done = Arc::new(AtomicU64::new(0));
    let sleeper = {
        let (go, back, done) = (Arc::clone(&go), Arc::clone(&back), Arc::clone(&done));
        ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                for _ in 0..ROUNDS {
                    go.p();
                    done.fetch_add(1, Ordering::Relaxed);
                    back.v();
                }
            })
            .expect("spawn sleeper")
    };
    let finished = Arc::new(AtomicBool::new(false));
    let waker = {
        let finished = Arc::clone(&finished);
        ThreadBuilder::new()
            .flags(CreateFlags::WAIT | CreateFlags::BIND_LWP)
            .spawn(move || {
                for _ in 0..ROUNDS {
                    go.v();
                    back.p();
                }
                finished.store(true, Ordering::SeqCst);
            })
            .expect("spawn waker")
    };
    let mut seen = 0;
    let mut last_progress = Instant::now();
    while !finished.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        let now = done.load(Ordering::Relaxed);
        if now != seen {
            seen = now;
            last_progress = Instant::now();
        }
        assert!(
            last_progress.elapsed() < Duration::from_secs(10),
            "a wake was lost on a {lwps}-LWP pool: stuck after {seen} of {ROUNDS} rounds"
        );
    }
    threads::wait(Some(waker)).expect("wait waker");
    threads::wait(Some(sleeper)).expect("wait sleeper");
    assert_eq!(done.load(Ordering::Relaxed), ROUNDS);
}

#[test]
fn the_idle_handshake_loses_no_wake() {
    let _serial = serial();
    threads::init();
    idle_handshake(1);
    idle_handshake(2);
    threads::set_concurrency(0).expect("set concurrency");
}
