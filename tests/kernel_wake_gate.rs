//! The kernel-wake gate: a wake on a private word makes the `futex_wake`
//! system call only when a kernel thread is parked in the word's address
//! bucket (`sunmt_sync::strategy::{kernel_park, kernel_unpark}`).
//!
//! The gate can lose a wakeup in one way only: a waker reads the bucket's
//! parker count as zero while a kernel parker is committing to sleep on the
//! word. So every scenario here mixes bound waiters (parked in the kernel)
//! with unbound ones (parked on the user-level sleep queue) on the same
//! `Sema`, `Condvar` and bounded channel, wakes them from bound and unbound
//! threads alike, and runs at 1 and 2 LWPs. Each runs twice: once with an
//! idle kernel parker on a decoy word in every bucket, so every word the
//! scenario uses shares its bucket with another kernel parker and every
//! wake must reach the kernel; and once without, so a word's bucket holds
//! only that word's own kernel parkers and wakes are skipped whenever none
//! of them is inside its park. A watchdog turns a lost wakeup into a
//! failure.
//!
//! Two more cases: a kernel park that began before the library was
//! initialised (a plain `std::thread` on a private `Sema`, in a fresh
//! child process) must still be woken by an unbound thread afterwards; and
//! a channel exchange between unbound threads alone must make no kernel
//! wake at all.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as HostMutex, MutexGuard};
use std::time::{Duration, Instant};

use sunos_mt::chan;
use sunos_mt::shm::ipc;
use sunos_mt::sync::strategy::{self, addr_bucket, ADDR_BUCKETS};
use sunos_mt::sync::{Condvar, Mutex, Sema, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder, ThreadId};
use sunos_mt::trace::{self, Tag};

/// No progress for this long means a wakeup was lost.
const STALL: Duration = Duration::from_secs(10);

/// The pool size, the decoys and the trace counters are process-wide: the
/// tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: HostMutex<()> = HostMutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn spawn(bound: bool, body: impl FnOnce() + Send + 'static) -> ThreadId {
    let flags = if bound {
        CreateFlags::WAIT | CreateFlags::BIND_LWP
    } else {
        CreateFlags::WAIT
    };
    ThreadBuilder::new()
        .flags(flags)
        .spawn(Box::new(body))
        .expect("spawn")
}

/// Polls `progress` until `done` holds, failing if `progress` stops
/// moving for [`STALL`]. Sleeps between polls, so the calling thread never
/// parks on a word the scenario uses.
fn watch(what: &str, progress: impl Fn() -> usize, done: impl Fn() -> bool) {
    let mut seen = progress();
    let mut moved = Instant::now();
    while !done() {
        std::thread::sleep(Duration::from_millis(1));
        let now = progress();
        if now != seen {
            seen = now;
            moved = Instant::now();
        }
        assert!(
            moved.elapsed() < STALL,
            "watchdog: {what} stalled at {seen} — a wakeup was lost"
        );
    }
}

/// Idle kernel parkers, one on a private decoy word in each address
/// bucket, parked until dropped.
struct Decoys {
    words: Arc<Vec<AtomicU32>>,
    picked: Vec<usize>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Decoys {
    fn in_every_bucket() -> Decoys {
        let words: Arc<Vec<AtomicU32>> = Arc::new((0..4096).map(|_| AtomicU32::new(0)).collect());
        let mut picked = vec![usize::MAX; ADDR_BUCKETS];
        for (i, w) in words.iter().enumerate() {
            let b = addr_bucket(w.as_ptr() as usize);
            if picked[b] == usize::MAX {
                picked[b] = i;
            }
        }
        assert!(
            picked.iter().all(|&i| i != usize::MAX),
            "a bucket got no decoy word"
        );
        let threads = picked
            .iter()
            .map(|&i| {
                let words = Arc::clone(&words);
                std::thread::Builder::new()
                    .stack_size(64 * 1024)
                    .spawn(move || {
                        while words[i].load(Ordering::SeqCst) == 0 {
                            strategy::park(&words[i], 0, false);
                        }
                    })
                    .expect("spawn decoy")
            })
            .collect();
        Decoys {
            words,
            picked,
            threads,
        }
    }
}

impl Drop for Decoys {
    fn drop(&mut self) {
        for &i in &self.picked {
            self.words[i].store(1, Ordering::SeqCst);
            strategy::unpark(&self.words[i], 1, false);
        }
        for t in self.threads.drain(..) {
            // A decoy cannot panic; never panic here while unwinding.
            let joined = t.join();
            assert!(joined.is_ok() || std::thread::panicking(), "decoy panicked");
        }
    }
}

/// Runs `scenario` at 1 and 2 LWPs, with and without decoys.
fn each_configuration(scenario: fn(&str)) {
    let _serial = serial();
    for lwps in [1, 2] {
        threads::set_concurrency(lwps).expect("setconcurrency");
        for shared_bucket in [false, true] {
            let _decoys = shared_bucket.then(Decoys::in_every_bucket);
            let what = format!(
                "{lwps} LWP(s), {}",
                if shared_bucket {
                    "buckets shared with decoys"
                } else {
                    "buckets of their own"
                }
            );
            scenario(&what);
        }
    }
}

/// Waiter/waker roles of a scenario: even indices bound, odd unbound.
const ROLES: usize = 4;
const ROUNDS: usize = 300;

#[test]
fn sema_mixed_waiters_never_lose_a_wake() {
    if ipc::child_role().is_some() {
        return;
    }
    each_configuration(|what| {
        let s = Arc::new(Sema::new(0, SyncType::DEFAULT));
        let progress = Arc::new(AtomicUsize::new(0));
        let mut ids = Vec::new();
        for r in 0..ROLES {
            let (s, progress) = (Arc::clone(&s), Arc::clone(&progress));
            ids.push(spawn(r % 2 == 0, move || {
                for i in 0..ROUNDS {
                    // Every fourth take is timed, so the timed kernel park
                    // is counted in its bucket too.
                    if i % 4 == 3 {
                        while !s.timed_p(Duration::from_millis(50)) {}
                    } else {
                        s.p();
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for r in 0..ROLES {
            let s = Arc::clone(&s);
            ids.push(spawn(r % 2 == 1, move || {
                for i in 0..ROUNDS {
                    s.v();
                    if i % 8 == 0 {
                        threads::yield_now();
                    }
                }
            }));
        }
        watch(
            &format!("sema, {what}"),
            || progress.load(Ordering::Relaxed),
            || progress.load(Ordering::Relaxed) == ROLES * ROUNDS,
        );
        for id in ids {
            threads::wait(Some(id)).expect("wait");
        }
        assert_eq!(s.count(), 0);
    });
}

#[test]
fn condvar_mixed_waiters_never_lose_a_wake() {
    if ipc::child_role().is_some() {
        return;
    }
    struct Monitor {
        m: Mutex,
        not_empty: Condvar,
        not_full: Condvar,
        items: AtomicUsize,
        taken: AtomicUsize,
    }
    const CAP: usize = 2;
    each_configuration(|what| {
        let w = Arc::new(Monitor {
            m: Mutex::new(SyncType::DEFAULT),
            not_empty: Condvar::new(SyncType::DEFAULT),
            not_full: Condvar::new(SyncType::DEFAULT),
            items: AtomicUsize::new(0),
            taken: AtomicUsize::new(0),
        });
        let mut ids = Vec::new();
        for r in 0..ROLES {
            let c = Arc::clone(&w);
            // Consumers: bound on even roles.
            ids.push(spawn(r % 2 == 0, move || {
                let w = c;
                for i in 0..ROUNDS {
                    w.m.enter();
                    while w.items.load(Ordering::Relaxed) == 0 {
                        if i % 4 == 3 {
                            w.not_empty.timed_wait(&w.m, Duration::from_millis(50));
                        } else {
                            w.not_empty.wait(&w.m);
                        }
                    }
                    w.items.fetch_sub(1, Ordering::Relaxed);
                    w.not_full.signal();
                    w.m.exit();
                    w.taken.fetch_add(1, Ordering::Relaxed);
                }
            }));
            let p = Arc::clone(&w);
            // Producers: bound on odd roles.
            ids.push(spawn(r % 2 == 1, move || {
                let w = p;
                for _ in 0..ROUNDS {
                    w.m.enter();
                    while w.items.load(Ordering::Relaxed) == CAP {
                        w.not_full.wait(&w.m);
                    }
                    w.items.fetch_add(1, Ordering::Relaxed);
                    w.not_empty.signal();
                    w.m.exit();
                }
            }));
        }
        watch(
            &format!("condvar, {what}"),
            || w.taken.load(Ordering::Relaxed),
            || w.taken.load(Ordering::Relaxed) == ROLES * ROUNDS,
        );
        for id in ids {
            threads::wait(Some(id)).expect("wait");
        }
        assert_eq!(w.items.load(Ordering::Relaxed), 0);
    });
}

#[test]
fn channel_mixed_waiters_never_lose_a_wake() {
    if ipc::child_role().is_some() {
        return;
    }
    each_configuration(|what| {
        let (tx, rx) = chan::bounded::<u64>(2);
        let received = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let mut ids = Vec::new();
        for r in 0..ROLES {
            let rx = rx.clone();
            let (received, sum) = (Arc::clone(&received), Arc::clone(&sum));
            ids.push(spawn(r % 2 == 0, move || {
                for i in 0..ROUNDS {
                    let v = if i % 4 == 3 {
                        loop {
                            if let Ok(v) = rx.recv_timeout(Duration::from_millis(50)) {
                                break v;
                            }
                        }
                    } else {
                        rx.recv().expect("senders alive")
                    };
                    sum.fetch_add(v, Ordering::Relaxed);
                    received.fetch_add(1, Ordering::Relaxed);
                }
            }));
            let tx = tx.clone();
            ids.push(spawn(r % 2 == 1, move || {
                for i in 0..ROUNDS {
                    tx.send(i as u64).expect("receivers alive");
                }
            }));
        }
        watch(
            &format!("channel, {what}"),
            || received.load(Ordering::Relaxed),
            || received.load(Ordering::Relaxed) == ROLES * ROUNDS,
        );
        for id in ids {
            threads::wait(Some(id)).expect("wait");
        }
        let per_role = (ROUNDS * (ROUNDS - 1) / 2) as u64;
        assert_eq!(sum.load(Ordering::Relaxed), ROLES as u64 * per_role);
    });
}

/// Whether the kernel thread `tid` of this process is asleep.
fn sleeping(tid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
        .ok()
        .and_then(|s| {
            // The state follows the parenthesised command name.
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().next().map(|st| st == "S")
        })
        .unwrap_or(false)
}

const PRE_INIT_ROLE: &str = "kernel-wake-gate-pre-init";

#[test]
fn kernel_park_from_before_init_is_woken_after_it() {
    if ipc::child_role().as_deref() == Some(PRE_INIT_ROLE) {
        pre_init_child();
        std::process::exit(0);
    }
    if ipc::child_role().is_some() {
        return;
    }
    // A fresh process, so that the park provably begins before the
    // library installs its strategy.
    let mut child =
        ipc::spawn_cooperating_env(PRE_INIT_ROLE, &std::env::temp_dir()).expect("spawn child");
    let start = Instant::now();
    let status = loop {
        if let Some(st) = child.try_wait().expect("child status") {
            break st;
        }
        if start.elapsed() > STALL * 2 {
            let _ = child.kill();
            panic!("watchdog: pre-init child hung — the kernel parker was never woken");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "pre-init child failed: {status}");
}

fn pre_init_child() {
    let s = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let tid = Arc::new(AtomicU32::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let parker = {
        let (s, tid, done) = (Arc::clone(&s), Arc::clone(&tid), Arc::clone(&done));
        std::thread::spawn(move || {
            tid.store(sunos_mt::sys::task::gettid(), Ordering::SeqCst);
            s.p();
            done.store(true, Ordering::SeqCst);
        })
    };
    // Wait until the plain thread is asleep inside `p` — parked in the
    // kernel by the default strategy, since nothing is initialised yet.
    let start = Instant::now();
    while tid.load(Ordering::SeqCst) == 0 || !sleeping(tid.load(Ordering::SeqCst)) {
        assert!(start.elapsed() < STALL, "the plain thread never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    threads::init();
    let waker = {
        let s = Arc::clone(&s);
        spawn(false, move || s.v())
    };
    let start = Instant::now();
    while !done.load(Ordering::SeqCst) {
        assert!(
            start.elapsed() < STALL,
            "watchdog: a kernel park from before init was never woken"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    parker.join().expect("parker");
    threads::wait(Some(waker)).expect("wait");
}

#[test]
fn unbound_channel_exchange_makes_no_kernel_wake() {
    if ipc::child_role().is_some() {
        return;
    }
    const BURST: u64 = 16;
    const BURSTS: u64 = 200;
    let _serial = serial();
    let mut avoided = 0;
    for lwps in [1, 2] {
        threads::set_concurrency(lwps).expect("setconcurrency");
        let (to_echo, echo_rx) = chan::bounded::<u64>(4);
        let (echo_tx, from_echo) = chan::bounded::<u64>(4);
        let finished = Arc::new(AtomicUsize::new(0));
        let avoided_before = threads::stats().futex_wakes_avoided;
        trace::enable();
        let echo = {
            let finished = Arc::clone(&finished);
            spawn(false, move || {
                while let Ok(v) = echo_rx.recv() {
                    echo_tx.send(v).expect("source alive");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        };
        let source = {
            let finished = Arc::clone(&finished);
            spawn(false, move || {
                // Bursts keep several messages in flight, so woken
                // receivers are often still counted as waiters when the
                // next message arrives: the sends that used to make an
                // empty kernel wake.
                for b in 0..BURSTS {
                    let mut sum = 0;
                    let sender = {
                        let to_echo = to_echo.clone();
                        spawn(false, move || {
                            for i in 0..BURST {
                                to_echo.send(b * BURST + i).expect("echo alive");
                            }
                        })
                    };
                    for _ in 0..BURST {
                        sum += from_echo.recv().expect("echo alive");
                    }
                    threads::wait(Some(sender)).expect("wait");
                    assert_eq!(sum, (b * BURST..(b + 1) * BURST).sum::<u64>());
                }
                drop(to_echo);
                finished.fetch_add(1, Ordering::SeqCst);
            })
        };
        watch(
            "unbound exchange",
            || finished.load(Ordering::SeqCst),
            || finished.load(Ordering::SeqCst) == 2,
        );
        let wakes = trace::counters().get(Tag::FutexWake);
        trace::disable();
        avoided += threads::stats().futex_wakes_avoided - avoided_before;
        threads::wait(Some(source)).expect("wait");
        threads::wait(Some(echo)).expect("wait");
        assert_eq!(
            wakes, 0,
            "{lwps} LWP(s): unbound threads made {wakes} kernel wakes"
        );
    }
    // The skipped wakes are what the statistics report.
    assert!(avoided > 0, "no skipped kernel wake was counted");
}
