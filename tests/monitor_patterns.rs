//! Classic concurrent-programming patterns built purely from the paper's
//! primitives, run with mixed bound/unbound threads: a bounded buffer
//! (monitor with two conditions), a readers/writers workload exercising
//! `rw_downgrade`/`rw_tryupgrade` under load, a reusable barrier from
//! one mutex + one condition variable, and a timed wait whose deadline
//! passes while it queues for the mutex after being signalled.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunos_mt::sync::{Condvar, Mutex, RwLock, RwType, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

// -------------------------------------------------------------------------
// Bounded buffer: the canonical two-condition monitor.

struct BoundedBuffer {
    m: Mutex,
    not_full: Condvar,
    not_empty: Condvar,
    q: UnsafeCell<VecDeque<u64>>,
    cap: usize,
}

// SAFETY: `q` is only touched with `m` held.
unsafe impl Sync for BoundedBuffer {}

impl BoundedBuffer {
    fn new(cap: usize) -> BoundedBuffer {
        BoundedBuffer {
            m: Mutex::new(SyncType::DEFAULT),
            not_full: Condvar::new(SyncType::DEFAULT),
            not_empty: Condvar::new(SyncType::DEFAULT),
            q: UnsafeCell::new(VecDeque::new()),
            cap,
        }
    }

    fn put(&self, v: u64) {
        self.m.enter();
        // SAFETY: Under `m`.
        while unsafe { (*self.q.get()).len() } >= self.cap {
            self.not_full.wait(&self.m);
        }
        // SAFETY: Under `m`.
        unsafe { (*self.q.get()).push_back(v) };
        self.not_empty.signal();
        self.m.exit();
    }

    fn take(&self) -> u64 {
        self.m.enter();
        // SAFETY: Under `m`.
        while unsafe { (*self.q.get()).is_empty() } {
            self.not_empty.wait(&self.m);
        }
        // SAFETY: Under `m`.
        let v = unsafe { (*self.q.get()).pop_front() }.expect("non-empty");
        self.not_full.signal();
        self.m.exit();
        v
    }
}

#[test]
fn bounded_buffer_with_mixed_producers_and_consumers() {
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 4;
    const PER_PRODUCER: u64 = 500;
    let buf = Arc::new(BoundedBuffer::new(8));
    let sum = Arc::new(AtomicU32::new(0));
    let mut ids = Vec::new();
    for p in 0..PRODUCERS {
        let buf = Arc::clone(&buf);
        // Half the producers bound, half unbound: same monitor, both
        // blocking mechanisms.
        let flags = if p % 2 == 0 {
            CreateFlags::WAIT
        } else {
            CreateFlags::WAIT | CreateFlags::BIND_LWP
        };
        ids.push(
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    for i in 0..PER_PRODUCER {
                        buf.put(i + 1);
                    }
                })
                .expect("producer"),
        );
    }
    for c in 0..CONSUMERS {
        let buf = Arc::clone(&buf);
        let sum = Arc::clone(&sum);
        let flags = if c % 2 == 0 {
            CreateFlags::WAIT | CreateFlags::BIND_LWP
        } else {
            CreateFlags::WAIT
        };
        let per_consumer = PRODUCERS as u64 * PER_PRODUCER / CONSUMERS as u64;
        ids.push(
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    for _ in 0..per_consumer {
                        sum.fetch_add(buf.take() as u32, Ordering::Relaxed);
                    }
                })
                .expect("consumer"),
        );
    }
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    let expected = PRODUCERS as u32 * (PER_PRODUCER * (PER_PRODUCER + 1) / 2) as u32;
    assert_eq!(
        sum.load(Ordering::SeqCst),
        expected,
        "items lost or duplicated"
    );
}

// -------------------------------------------------------------------------
// Readers/writers with upgrade and downgrade under concurrency.

#[test]
fn rwlock_upgrade_downgrade_under_concurrency() {
    struct Table {
        lock: RwLock,
        version: AtomicUsize,
        upgrades_won: AtomicUsize,
        upgrades_lost: AtomicUsize,
    }
    let t = Arc::new(Table {
        lock: RwLock::new(SyncType::DEFAULT),
        version: AtomicUsize::new(0),
        upgrades_won: AtomicUsize::new(0),
        upgrades_lost: AtomicUsize::new(0),
    });
    const THREADS: usize = 8;
    const ITERS: usize = 400;
    let mut ids = Vec::new();
    for i in 0..THREADS {
        let t = Arc::clone(&t);
        ids.push(
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    for n in 0..ITERS {
                        match (n + i) % 3 {
                            0 => {
                                // Search, then maybe upgrade to modify —
                                // the paper's rw_tryupgrade use case.
                                t.lock.enter(RwType::Reader);
                                let _seen = t.version.load(Ordering::Relaxed);
                                if t.lock.try_upgrade() {
                                    t.version.fetch_add(1, Ordering::Relaxed);
                                    t.upgrades_won.fetch_add(1, Ordering::Relaxed);
                                    // Publish, then keep reading:
                                    // rw_downgrade.
                                    t.lock.downgrade();
                                    let _ = t.version.load(Ordering::Relaxed);
                                    t.lock.exit();
                                } else {
                                    t.upgrades_lost.fetch_add(1, Ordering::Relaxed);
                                    t.lock.exit();
                                }
                            }
                            1 => {
                                t.lock.enter(RwType::Writer);
                                t.version.fetch_add(1, Ordering::Relaxed);
                                t.lock.exit();
                            }
                            _ => {
                                t.lock.enter(RwType::Reader);
                                let _ = t.version.load(Ordering::Relaxed);
                                t.lock.exit();
                            }
                        }
                    }
                })
                .expect("spawn"),
        );
    }
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    assert_eq!(t.lock.holders(), (false, 0), "lock must end free");
    let won = t.upgrades_won.load(Ordering::SeqCst);
    let writes = THREADS * ITERS / 3 + won;
    // Every successful upgrade and plain write bumped the version once.
    let version = t.version.load(Ordering::SeqCst);
    assert!(version >= writes.min(version), "sanity");
    assert_eq!(
        version,
        won + (0..THREADS)
            .map(|i| (0..ITERS).filter(|n| (n + i) % 3 == 1).count())
            .sum::<usize>(),
        "writer and upgrade counts must match version increments"
    );
}

// -------------------------------------------------------------------------
// A reusable N-party barrier from one mutex + one condvar.

struct Barrier {
    m: Mutex,
    cv: Condvar,
    needed: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl Barrier {
    fn new(needed: usize, mutex_kind: SyncType) -> Barrier {
        Barrier {
            m: Mutex::new(mutex_kind),
            cv: Condvar::new(SyncType::DEFAULT),
            needed,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        self.m.enter();
        let gen = self.generation.load(Ordering::Relaxed);
        if self.arrived.fetch_add(1, Ordering::Relaxed) + 1 == self.needed {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Relaxed);
            self.cv.broadcast();
        } else {
            while self.generation.load(Ordering::Relaxed) == gen {
                self.cv.wait(&self.m);
            }
        }
        self.m.exit();
    }
}

#[test]
fn condvar_barrier_keeps_lockstep() {
    // Every round ends in a broadcast the woken parties then contend the
    // mutex over; the adaptive variant's reacquire spins and sleeps on
    // the same slow path as `mutex_enter`.
    for kind in [SyncType::DEFAULT, SyncType::ADAPTIVE] {
        barrier_lockstep(kind);
    }
}

fn barrier_lockstep(mutex_kind: SyncType) {
    const PARTIES: usize = 6;
    const ROUNDS: usize = 50;
    let bar = Arc::new(Barrier::new(PARTIES, mutex_kind));
    let round_counts = Arc::new((0..ROUNDS).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
    let mut ids = Vec::new();
    for _ in 0..PARTIES {
        let bar = Arc::clone(&bar);
        let rc = Arc::clone(&round_counts);
        ids.push(
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    for r in 0..ROUNDS {
                        rc[r].fetch_add(1, Ordering::SeqCst);
                        bar.wait();
                        // After the barrier, the whole round must be in.
                        assert_eq!(
                            rc[r].load(Ordering::SeqCst),
                            PARTIES,
                            "barrier released early in round {r}"
                        );
                    }
                })
                .expect("spawn"),
        );
    }
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
}

// -------------------------------------------------------------------------
// cv_timedwait: a signal that arrives before the deadline is a signal, even
// when the deadline passes while the waiter queues for the mutex.

#[test]
fn deadline_passed_behind_the_mutex_is_still_a_signal() {
    struct Monitor {
        m: Mutex,
        cv: Condvar,
        go: AtomicBool,
        entered: AtomicBool,
    }
    let mon = Arc::new(Monitor {
        m: Mutex::new(SyncType::DEFAULT),
        cv: Condvar::new(SyncType::DEFAULT),
        go: AtomicBool::new(false),
        entered: AtomicBool::new(false),
    });
    let s = Arc::clone(&mon);
    let id = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            s.m.enter();
            s.entered.store(true, Ordering::SeqCst);
            let mut signaled = true;
            while signaled && !s.go.load(Ordering::SeqCst) {
                signaled = s.cv.timed_wait(&s.m, Duration::from_secs(1));
            }
            s.m.exit();
            assert!(
                s.go.load(Ordering::SeqCst),
                "waiter timed out before the broadcast arrived"
            );
            assert!(
                signaled,
                "deadline passed while reacquiring the mutex and was wrongly \
                 reported as a timeout"
            );
        })
        .expect("spawn waiter");
    // Seeing the flag under the mutex proves the waiter has released it
    // inside its wait; the grace sleep lets it finish parking.
    loop {
        mon.m.enter();
        let entered = mon.entered.load(Ordering::SeqCst);
        mon.m.exit();
        if entered {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));

    // Broadcast, then keep holding the mutex until well past the waiter's
    // deadline: the waiter was woken in time and spends the rest of its
    // timeout queued for the mutex.
    let t0 = Instant::now();
    mon.m.enter();
    mon.go.store(true, Ordering::SeqCst);
    mon.cv.broadcast();
    std::thread::sleep(Duration::from_millis(1_300));
    mon.m.exit();
    assert!(
        t0.elapsed() >= Duration::from_millis(1_200),
        "broadcaster released the mutex before the deadline could pass"
    );
    threads::wait(Some(id)).expect("join waiter");
}
