//! `thread_wait` claims under a race, on a two-LWP pool.
//!
//! Each `THREAD_WAIT` thread carries its own exit word: a specific waiter
//! claims it before it exits (`LIVE -> CLAIMED`) or reaps it after
//! (`EXITED -> REAPED`), and `wait(None)` takes exited, unclaimed ones.
//! Specific waiters and any-waiters race thousands of exits here; every
//! thread must be reaped exactly once. Then gated threads, built from the
//! thread objects that race recycled, check that a claimed waiter blocks
//! until its thread really exits: a permit left behind on a recycled
//! thread's exit semaphore would let it return early.
//!
//! Any-waits steal every other test's threads, so this binary holds one
//! test.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunos_mt::sync::{Sema, SyncType};
use sunos_mt::threads::{self, CreateFlags, MtError, ThreadBuilder, ThreadId};

const CHILDREN: usize = 10_000;
const SPECIFIC: usize = 4;
const ANY: usize = 2;
const GATED: usize = 64;

/// Polls `done` until it reaches `want`, failing the test after a minute
/// instead of hanging it.
fn await_count(done: &AtomicUsize, want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while done.load(Ordering::SeqCst) < want {
        assert!(
            Instant::now() < deadline,
            "{what}: {} of {want} after 60 s",
            done.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Spawns an unbound thread that no any-wait can take.
fn helper(f: impl FnOnce() + Send + 'static) {
    ThreadBuilder::new().spawn(f).expect("spawn helper");
}

#[test]
fn every_waitable_thread_is_reaped_exactly_once() {
    threads::set_concurrency(2).expect("setconcurrency");

    // Race: specific waiters and any-waiters against exiting threads.
    let go = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let ids: Vec<ThreadId> = (0..CHILDREN)
        .map(|i| {
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    for _ in 0..i % 4 {
                        threads::yield_now();
                    }
                })
                .expect("spawn child")
        })
        .collect();
    let index: Arc<HashMap<ThreadId, usize>> =
        Arc::new(ids.iter().enumerate().map(|(i, id)| (*id, i)).collect());
    assert_eq!(index.len(), CHILDREN, "thread ids must be unique");
    let reaps: Arc<Vec<AtomicUsize>> =
        Arc::new((0..CHILDREN).map(|_| AtomicUsize::new(0)).collect());
    let done = Arc::new(AtomicUsize::new(0));

    for k in 0..SPECIFIC {
        let mine: Vec<ThreadId> = ids.iter().skip(k).step_by(SPECIFIC).copied().collect();
        let (go, index, reaps, done) = (
            Arc::clone(&go),
            Arc::clone(&index),
            Arc::clone(&reaps),
            Arc::clone(&done),
        );
        helper(move || {
            go.p();
            for id in mine {
                match threads::wait(Some(id)) {
                    Ok(got) => {
                        assert_eq!(got, id);
                        reaps[index[&id]].fetch_add(1, Ordering::SeqCst);
                    }
                    // An any-wait took it first (and may have reaped it).
                    Err(MtError::AlreadyWaited(_) | MtError::UnknownThread(_)) => {}
                    Err(e) => panic!("wait({id:?}): {e}"),
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    for _ in 0..ANY {
        let (go, index, reaps, done) = (
            Arc::clone(&go),
            Arc::clone(&index),
            Arc::clone(&reaps),
            Arc::clone(&done),
        );
        helper(move || {
            go.p();
            loop {
                match threads::wait(None) {
                    Ok(id) => {
                        reaps[index[&id]].fetch_add(1, Ordering::SeqCst);
                    }
                    Err(MtError::NothingToWait) => break,
                    Err(e) => panic!("wait(None): {e}"),
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    for _ in 0..SPECIFIC + ANY {
        go.v();
    }
    await_count(&done, SPECIFIC + ANY, "waiters finished");

    let wrong: Vec<(ThreadId, usize)> = ids
        .iter()
        .map(|id| (*id, reaps[index[id]].load(Ordering::SeqCst)))
        .filter(|(_, n)| *n != 1)
        .take(8)
        .collect();
    assert!(wrong.is_empty(), "reaped other than once: {wrong:?}");
    assert!(
        matches!(threads::wait(None), Err(MtError::NothingToWait)),
        "a drained process still had something to any-wait for"
    );
    assert!(
        matches!(threads::wait(Some(ids[0])), Err(MtError::UnknownThread(_))),
        "a reaped id must be unusable"
    );

    // Claims on recycled thread objects: two waiters race for each gated
    // thread. The loser is told `AlreadyWaited` at once; the winner must
    // not return before the gate opens.
    let gate = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let lost = Arc::new(AtomicUsize::new(0));
    let won = Arc::new(AtomicUsize::new(0));
    for _ in 0..GATED {
        let g = Arc::clone(&gate);
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || g.p())
            .expect("spawn gated");
        for _ in 0..2 {
            let (lost, won) = (Arc::clone(&lost), Arc::clone(&won));
            helper(move || match threads::wait(Some(id)) {
                Ok(got) => {
                    assert_eq!(got, id);
                    won.fetch_add(1, Ordering::SeqCst);
                }
                Err(MtError::AlreadyWaited(got)) => {
                    assert_eq!(got, id);
                    lost.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => panic!("wait({id:?}): {e}"),
            });
        }
    }
    await_count(&lost, GATED, "second waiters told AlreadyWaited");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        won.load(Ordering::SeqCst),
        0,
        "a claimed wait returned before its thread exited"
    );
    for _ in 0..GATED {
        gate.v();
    }
    await_count(&won, GATED, "claimed waits returned");
    assert_eq!(lost.load(Ordering::SeqCst), GATED);
    assert!(matches!(threads::wait(None), Err(MtError::NothingToWait)));

    threads::set_concurrency(0).expect("setconcurrency(0)");
}
