//! End-to-end tests for `sunmt-chan`: blocking MPSC/MPMC handoff across
//! unbound threads, backpressure on bounded sends, timed receives,
//! disconnect semantics and `Select` multi-wait.
//!
//! Channels are per-test instances, so these tests run in parallel; the
//! only shared state is the threads runtime, which `init` makes
//! idempotent.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sunos_mt::chan::{self, RecvTimeoutError, Select, TryRecvError, TrySendError};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder, ThreadId};

/// Spawns an *unbound* joinable thread — the multiplexed kind whose
/// blocking goes through the user-level sleep queue.
fn unbound(f: impl FnOnce() + Send + 'static) -> ThreadId {
    ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(f)
        .expect("spawn unbound thread")
}

#[test]
fn bounded_handoff_is_fifo_across_unbound_threads() {
    threads::init();
    const N: u64 = 10_000;
    // Capacity far below N: the producer must repeatedly block on a
    // full ring and be woken by the consumer's receives.
    let (tx, rx) = chan::bounded::<u64>(4);
    let producer = unbound(move || {
        for i in 0..N {
            tx.send(i).expect("receiver alive");
        }
    });
    for expect in 0..N {
        assert_eq!(rx.recv().expect("producer alive"), expect);
    }
    threads::wait(Some(producer)).expect("join producer");
    assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
}

#[test]
fn mpmc_conserves_every_message_under_contention() {
    threads::init();
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 4;
    const PER: u64 = 2_500;

    let (tx, rx) = chan::bounded::<u64>(8);
    let mut ids = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        ids.push(unbound(move || {
            for i in 0..PER {
                tx.send(p * PER + i).expect("receivers alive");
            }
        }));
    }
    drop(tx);

    let got = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..CONSUMERS {
        let rx = rx.clone();
        let got = Arc::clone(&got);
        ids.push(unbound(move || {
            let mut local = Vec::new();
            while let Ok(v) = rx.recv() {
                local.push(v);
            }
            got.lock().expect("collector").extend(local);
        }));
    }
    drop(rx);
    for id in ids {
        threads::wait(Some(id)).expect("join");
    }

    let got = got.lock().expect("collector");
    assert_eq!(
        got.len() as u64,
        PRODUCERS * PER,
        "messages lost or duplicated"
    );
    let distinct: HashSet<u64> = got.iter().copied().collect();
    assert_eq!(
        distinct.len() as u64,
        PRODUCERS * PER,
        "duplicate deliveries"
    );
}

#[test]
fn full_bounded_channel_applies_backpressure() {
    threads::init();
    // `bounded` promises *at least* the requested capacity; the ring
    // rounds a request of 1 up to its floor of 2.
    let (tx, rx) = chan::bounded::<u32>(1);
    tx.send(1).expect("empty channel");
    tx.send(2).expect("one slot left");
    assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));

    // A blocking send parks until the receiver drains a slot.
    let sent_third = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&sent_third);
    let tx2 = tx.clone();
    let sender = unbound(move || {
        tx2.send(3).expect("receiver alive");
        flag.store(true, Ordering::SeqCst);
    });
    assert_eq!(rx.recv().expect("value queued"), 1);
    assert_eq!(rx.recv().expect("value queued"), 2);
    assert_eq!(rx.recv().expect("blocked sender delivers"), 3);
    threads::wait(Some(sender)).expect("join sender");
    assert!(sent_third.load(Ordering::SeqCst));
}

#[test]
fn unbounded_spill_preserves_single_sender_order() {
    threads::init();
    // Far past the internal ring, so the overflow spill engages.
    const N: u64 = 5_000;
    let (tx, rx) = chan::unbounded::<u64>();
    for i in 0..N {
        tx.send(i)
            .expect("unbounded send cannot fail while rx lives");
    }
    assert_eq!(rx.len() as u64, N);
    drop(tx);
    let drained: Vec<u64> = rx.iter().collect();
    assert_eq!(drained, (0..N).collect::<Vec<_>>());
}

#[test]
fn recv_timeout_expires_then_delivers() {
    threads::init();
    let (tx, rx) = chan::bounded::<u32>(4);

    let t0 = Instant::now();
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(50)),
        Err(RecvTimeoutError::Timeout)
    ));
    assert!(
        t0.elapsed() >= Duration::from_millis(40),
        "timed out early: {:?}",
        t0.elapsed()
    );

    let late = unbound(move || {
        std::thread::sleep(Duration::from_millis(20));
        tx.send(7).expect("receiver alive");
    });
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5))
            .expect("in-deadline send"),
        7
    );
    threads::wait(Some(late)).expect("join");
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(10)),
        Err(RecvTimeoutError::Disconnected)
    ));
}

#[test]
fn disconnect_wakes_a_blocked_receiver_and_fails_senders() {
    threads::init();
    let (tx, rx) = chan::bounded::<u32>(4);
    let receiver = unbound(move || {
        // Blocks with nothing queued; only the sender drop ends this.
        assert!(rx.recv().is_err());
    });
    std::thread::sleep(Duration::from_millis(20));
    drop(tx);
    threads::wait(Some(receiver)).expect("join receiver");

    let (tx, rx) = chan::bounded::<u32>(4);
    drop(rx);
    assert!(tx.send(1).is_err());
    assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
}

#[test]
fn select_reports_the_ready_port() {
    threads::init();
    let (tx_a, rx_a) = chan::bounded::<u32>(4);
    let (tx_b, rx_b) = chan::bounded::<&'static str>(4);

    let mut sel = Select::new();
    let ia = sel.recv(&rx_a);
    let ib = sel.recv(&rx_b);
    assert_eq!((ia, ib), (0, 1));
    assert_eq!(sel.ready(), None);
    assert_eq!(sel.wait_timeout(Duration::from_millis(20)), None);

    tx_b.send("hello").expect("rx_b alive");
    assert_eq!(sel.wait(), ib);
    assert_eq!(rx_b.try_recv().expect("winner has the message"), "hello");

    // A blocked select is woken by a send that arrives later.
    let late = unbound(move || {
        std::thread::sleep(Duration::from_millis(20));
        tx_a.send(42).expect("rx_a alive");
    });
    assert_eq!(sel.wait(), ia);
    assert_eq!(rx_a.try_recv().expect("woken port delivers"), 42);
    threads::wait(Some(late)).expect("join");
}

#[test]
fn select_covers_mpsc_receivers_and_disconnects() {
    threads::init();
    let (tx, rx) = chan::mpsc::channel::<u32>(4);
    let mut sel = Select::new();
    let i = sel.recv(&rx);
    drop(tx);
    // Disconnection counts as readiness: the waiter must not hang.
    assert_eq!(sel.wait(), i);
    assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
}

#[test]
fn mpsc_receiver_blocks_and_drains_like_the_core_channel() {
    threads::init();
    const N: u64 = 1_000;
    let (tx, rx) = chan::mpsc::unbounded::<u64>();
    let mut ids = Vec::new();
    for p in 0..4u64 {
        let tx = tx.clone();
        ids.push(unbound(move || {
            for i in 0..N {
                tx.send(p * N + i).expect("receiver alive");
            }
        }));
    }
    drop(tx);
    let mut got: Vec<u64> = rx.iter().collect();
    assert_eq!(got.len() as u64, 4 * N);
    got.sort_unstable();
    got.dedup();
    assert_eq!(got.len() as u64, 4 * N, "duplicate deliveries");
    for id in ids {
        threads::wait(Some(id)).expect("join");
    }
}
