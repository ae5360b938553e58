//! The I/O demultiplexer: per-pool-LWP poller shards, many parked threads.
//!
//! The window-server scenario in the paper needs "one thread per client"
//! without one *LWP* per client. The first cut of this module met that with
//! a single `epoll`-owning poller LWP — and inherited its serial
//! bottleneck: every register, every readiness event, and every wakeup in
//! the process funneled through one descriptor table and one LWP's
//! attention. This version shards the poller the way `ShardedRunQueue`
//! shards the dispatcher:
//!
//! * **One shard per pool LWP** (capped at [`MAX_SHARDS`]; the count is
//!   the pool size when the poller first runs, i.e. the `set_concurrency`
//!   level): a shard owns an epoll set, a descriptor table, and an LWP
//!   that sleeps in `epoll_wait`. A descriptor belongs to shard
//!   `fd % shards` for its whole life — an unbound thread changes LWPs
//!   between waits, so the fd number is the only stable home.
//! * **One registration per descriptor.** The first wait in a direction
//!   arms the fd with `epoll_ctl` directly, under the shard's table lock,
//!   and edge-triggered (`EPOLLET`): an ADD of `EPOLLIN|EPOLLRDHUP` for a
//!   reader, one MOD adding `EPOLLOUT` when a writer first waits (or the
//!   other way round). The fd then stays registered until
//!   `sunmt_io::close`, so no later wait makes an `epoll_ctl` call.
//! * **An edge nobody waits for is kept.** Edge-triggered readiness is
//!   reported once. An edge that finds no waiter in a direction sets that
//!   direction's ready flag in the fd's entry; the next wait consumes the
//!   flag and returns at once, so its caller retries the system call. A
//!   waiter's `EAGAIN` therefore meets either the flag or, after it has
//!   joined the waiter list, the next edge — the table lock orders the
//!   two.
//!
//! [`cancel_fd`] resolves the close-while-parked race: `sunmt_io::close`
//! removes the entry, deregisters the fd and errors every parked waiter out
//! with `EBADF` *before* `close(2)` runs. Each waiter carries an error word
//! beside its ready word for that verdict. An arm failure is returned to
//! the waiting caller directly.
//!
//! Lock order: a shard has one lock, its fd table. `epoll_ctl` runs under
//! it (first arm and close only); park, unpark and `epoll_wait` never do.

use core::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use core::time::Duration;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Once, OnceLock};

use sunmt::runq::unpoisoned;
use sunmt_lwp::Lwp;
use sunmt_sync::strategy;
use sunmt_sys::fd::{self, EpollEvent};
use sunmt_sys::time::monotonic_now;
use sunmt_sys::Errno;
use sunmt_trace::{probe, Tag};

/// Which readiness a waiter needs (the discriminant indexes [`FdEntry`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Dir {
    /// Readable (also used for `accept`).
    Read = 0,
    /// Writable.
    Write = 1,
}

impl Dir {
    /// The events a wait in this direction arms.
    fn events(self) -> u32 {
        match self {
            Dir::Read => fd::EPOLLIN | fd::EPOLLRDHUP,
            Dir::Write => fd::EPOLLOUT,
        }
    }
}

/// Ready-word values.
const WAITING: u32 = 0;
const READY: u32 = 1;

/// Hard cap on poller shards (each costs an epoll fd and an LWP).
const MAX_SHARDS: usize = 64;

/// One parked (or about-to-park) thread's ready flag. The waiter parks on
/// `word` while it holds [`WAITING`]; a waker stores the raw errno into
/// `err` (0 = genuine readiness), flips `word` to [`READY`], and unparks.
/// Shared `Arc` ownership keeps the words alive for whichever side
/// finishes last.
struct Waiter {
    word: AtomicU32,
    err: AtomicI32,
}

impl Waiter {
    fn new() -> Arc<Waiter> {
        Arc::new(Waiter {
            word: AtomicU32::new(WAITING),
            err: AtomicI32::new(0),
        })
    }

    /// The verdict a waker left: readiness, or the errno it was given.
    fn verdict(&self) -> Result<(), Errno> {
        match self.err.load(Ordering::SeqCst) {
            0 => Ok(()),
            raw => Err(Errno::from_raw(raw)),
        }
    }
}

/// One registered fd: its waiters and ready flags per [`Dir`], and the
/// event mask armed in the shard's epoll set (0 = not yet registered).
#[derive(Default)]
struct FdEntry {
    waiters: [Vec<Arc<Waiter>>; 2],
    ready: [bool; 2],
    armed: u32,
}

/// Per-shard monotonic counters, exported through the `"io"` stat source.
#[derive(Default)]
struct ShardCounters {
    registrations: AtomicU64,
    readies: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    timeouts: AtomicU64,
    epoll_waits: AtomicU64,
    ctl_syscalls: AtomicU64,
    pending: AtomicUsize,
}

/// One poller shard: an epoll set and the fds registered with it.
struct Shard {
    index: usize,
    epfd: i32,
    fds: Mutex<HashMap<i32, FdEntry>>,
    n: ShardCounters,
}

impl Shard {
    fn new(index: usize) -> Shard {
        Shard {
            index,
            epfd: fd::epoll_create1(fd::EPOLL_CLOEXEC).expect("epoll_create1 failed"),
            fds: Mutex::new(HashMap::new()),
            n: ShardCounters::default(),
        }
    }

    /// One direct, edge-triggered `epoll_ctl(2)` on this shard's set.
    fn epoll_ctl(&self, op: i32, io_fd: i32, events: u32) -> Result<(), Errno> {
        self.n.ctl_syscalls.fetch_add(1, Ordering::Relaxed);
        let ev = EpollEvent {
            events: events | fd::EPOLLET,
            data: io_fd as u64,
        };
        let arg = (op != fd::EPOLL_CTL_DEL).then_some(&ev);
        fd::epoll_ctl(self.epfd, op, io_fd, arg)
    }

    /// Hands a claimed waiter its verdict (`err` = 0 for readiness, else
    /// a raw errno) and unparks it.
    fn wake(&self, w: &Waiter, io_fd: i32, err: i32) {
        w.err.store(err, Ordering::SeqCst);
        w.word.store(READY, Ordering::SeqCst);
        probe!(Tag::IoUnpark, io_fd as u64);
        self.n.unparks.fetch_add(1, Ordering::Relaxed);
        strategy::unpark(&w.word, u32::MAX, false);
    }
}

/// The process-wide demultiplexer: all shards.
pub(crate) struct Poller {
    shards: Box<[Shard]>,
}

static POLLER: OnceLock<Poller> = OnceLock::new();
static START: Once = Once::new();

/// The poller singleton, spawning one shard LWP per pool LWP on first use.
pub(crate) fn global() -> &'static Poller {
    let p = POLLER.get_or_init(|| {
        let nshards = sunmt::concurrency().clamp(1, MAX_SHARDS);
        Poller {
            shards: (0..nshards).map(Shard::new).collect(),
        }
    });
    // The LWPs are spawned outside get_or_init: their loops touch the
    // singleton, and re-entering a OnceLock initializer deadlocks.
    START.call_once(|| {
        sunmt_stat::register_source("io", io_stat_source);
        for i in 0..p.shards.len() {
            let lwp = Lwp::spawn_named(format!("sunmt-io-shard-{i}"), move || {
                shard_loop(&global().shards[i])
            })
            .expect("failed to spawn a poller shard LWP");
            drop(lwp); // Detached; it serves the whole process lifetime.
        }
    });
    p
}

/// The poller if it has ever been started (for stats without side effects).
pub(crate) fn maybe_global() -> Option<&'static Poller> {
    POLLER.get()
}

/// The `"io"` gauge source `sunmt-stat` snapshots: process-wide totals
/// plus per-shard rows, so the lockstat report shows whether arm/ready
/// traffic actually spread across the shards.
fn io_stat_source() -> Vec<(String, u64)> {
    let Some(p) = maybe_global() else {
        return Vec::new();
    };
    let t = p.totals();
    let mut rows = vec![
        ("shards".to_string(), p.shards.len() as u64),
        ("registrations".to_string(), t.registrations),
        ("readies".to_string(), t.readies),
        ("parks".to_string(), t.parks),
        ("unparks".to_string(), t.unparks),
        ("timeouts".to_string(), t.timeouts),
        ("epoll_waits".to_string(), t.epoll_waits),
        ("ctl_syscalls".to_string(), t.ctl_syscalls),
        ("pending".to_string(), t.pending_waiters as u64),
    ];
    for s in p.shards.iter() {
        let i = s.index;
        rows.push((
            format!("shard{i}_registrations"),
            s.n.registrations.load(Ordering::Relaxed),
        ));
        rows.push((
            format!("shard{i}_readies"),
            s.n.readies.load(Ordering::Relaxed),
        ));
        rows.push((
            format!("shard{i}_pending"),
            s.n.pending.load(Ordering::Relaxed) as u64,
        ));
    }
    rows
}

/// Everything `sunmt_io::stats` reports, summed over the shards.
pub(crate) struct Totals {
    pub registrations: u64,
    pub readies: u64,
    pub parks: u64,
    pub unparks: u64,
    pub timeouts: u64,
    pub epoll_waits: u64,
    pub ctl_syscalls: u64,
    pub pending_waiters: usize,
}

impl Poller {
    /// The shard `io_fd` is registered with: fixed by the fd number, so
    /// every wait on one descriptor meets the same entry whichever LWP
    /// the waiting thread runs on.
    fn shard(&self, io_fd: i32) -> &Shard {
        &self.shards[io_fd as u32 as usize % self.shards.len()]
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn totals(&self) -> Totals {
        let mut t = Totals {
            registrations: 0,
            readies: 0,
            parks: 0,
            unparks: 0,
            timeouts: 0,
            epoll_waits: 0,
            ctl_syscalls: 0,
            pending_waiters: 0,
        };
        for s in self.shards.iter() {
            t.registrations += s.n.registrations.load(Ordering::Relaxed);
            t.readies += s.n.readies.load(Ordering::Relaxed);
            t.parks += s.n.parks.load(Ordering::Relaxed);
            t.unparks += s.n.unparks.load(Ordering::Relaxed);
            t.timeouts += s.n.timeouts.load(Ordering::Relaxed);
            t.epoll_waits += s.n.epoll_waits.load(Ordering::Relaxed);
            t.ctl_syscalls += s.n.ctl_syscalls.load(Ordering::Relaxed);
            t.pending_waiters += s.n.pending.load(Ordering::Relaxed);
        }
        t
    }

    /// Waits until `fd` may be ready in direction `dir` — `Ok` means
    /// "retry the system call" — or `deadline` (absolute monotonic)
    /// passes, then `Err(ETIMEDOUT)`. Returns at once if an edge arrived
    /// while nobody waited; arms the fd on its first wait in `dir`, and
    /// returns the error if that fails.
    ///
    /// Must be called from an unbound thread: the park goes through the
    /// installed blocking strategy and lands on the user-level sleep queue,
    /// freeing this LWP.
    pub(crate) fn wait(
        &self,
        io_fd: i32,
        dir: Dir,
        deadline: Option<Duration>,
    ) -> Result<(), Errno> {
        let shard = self.shard(io_fd);
        let w = Waiter::new();
        {
            let mut fds = unpoisoned(&shard.fds);
            let entry = fds.entry(io_fd).or_default();
            if std::mem::take(&mut entry.ready[dir as usize]) {
                return Ok(());
            }
            let want = entry.armed | dir.events();
            if want != entry.armed {
                let op = if entry.armed == 0 {
                    fd::EPOLL_CTL_ADD
                } else {
                    fd::EPOLL_CTL_MOD
                };
                shard.epoll_ctl(op, io_fd, want)?;
                entry.armed = want;
            }
            entry.waiters[dir as usize].push(Arc::clone(&w));
        }
        probe!(Tag::IoRegister, io_fd as u64, dir as u64);
        shard.n.registrations.fetch_add(1, Ordering::Relaxed);
        shard.n.pending.fetch_add(1, Ordering::Relaxed);
        let t0 = sunmt_trace::tick();
        let result = park(shard, io_fd, dir, deadline, &w);
        sunmt_trace::record_since(sunmt_trace::Hs::IoWait, t0);
        shard.n.pending.fetch_sub(1, Ordering::Relaxed);
        result
    }

    /// Resolves the close-while-parked race: removes `io_fd`'s entry,
    /// deregisters it, and errors out (with `EBADF`) every waiter parked
    /// on it. Called by `sunmt_io::close` *before* `close(2)`: the kernel
    /// drops a closed fd from its epoll sets only once every duplicate of
    /// it is closed, and a parked waiter would otherwise hang forever.
    pub(crate) fn cancel_fd(&self, io_fd: i32) {
        let shard = self.shard(io_fd);
        let woken = {
            let mut fds = unpoisoned(&shard.fds);
            let Some(entry) = fds.remove(&io_fd) else {
                return;
            };
            if entry.armed != 0 {
                // Under the lock, so a wait on a reused fd number that
                // finds no entry cannot ADD before this DEL.
                let _ = shard.epoll_ctl(fd::EPOLL_CTL_DEL, io_fd, 0);
            }
            let [read, write] = entry.waiters;
            read.into_iter().chain(write)
        };
        for w in woken {
            shard.wake(&w, io_fd, Errno::EBADF.raw());
        }
    }
}

/// Parks until a waker claims `w` or `deadline` passes. A waiter that
/// times out just leaves its fd's list; the fd stays registered.
fn park(
    shard: &Shard,
    io_fd: i32,
    dir: Dir,
    deadline: Option<Duration>,
    w: &Arc<Waiter>,
) -> Result<(), Errno> {
    loop {
        if w.word.load(Ordering::SeqCst) == READY {
            return w.verdict();
        }
        let timeout = match deadline {
            None => None,
            Some(d) => {
                let now = monotonic_now();
                if now >= d {
                    break;
                }
                Some(d - now)
            }
        };
        probe!(Tag::IoPark, io_fd as u64);
        shard.n.parks.fetch_add(1, Ordering::Relaxed);
        match timeout {
            None => strategy::park(&w.word, WAITING, false),
            Some(t) => strategy::park_timeout(&w.word, WAITING, false, t),
        }
    }
    let mut fds = unpoisoned(&shard.fds);
    if let Some(list) = fds.get_mut(&io_fd).map(|e| &mut e.waiters[dir as usize]) {
        if let Some(pos) = list.iter().position(|x| Arc::ptr_eq(x, w)) {
            // Still listed: no waker has claimed us, so the timeout wins.
            list.remove(pos);
            drop(fds);
            probe!(Tag::IoTimeout, io_fd as u64);
            shard.n.timeouts.fetch_add(1, Ordering::Relaxed);
            return Err(Errno::ETIMEDOUT);
        }
    }
    // A waker claimed us concurrently; its verdict wins (the unpark of
    // our word is benign).
    drop(fds);
    w.verdict()
}

/// One shard's poller loop: sleep in `epoll_wait`, hand each edge to the
/// waiters listed for it (or to the fd's ready flags), repeat.
fn shard_loop(shard: &Shard) {
    let mut events = [EpollEvent { events: 0, data: 0 }; 64];
    loop {
        shard.n.epoll_waits.fetch_add(1, Ordering::Relaxed);
        let t0 = sunmt_trace::tick();
        let n = fd::epoll_wait(shard.epfd, &mut events, -1);
        sunmt_trace::record_since(sunmt_trace::Hs::PollerWait, t0);
        let n = match n {
            Ok(n) => n,
            Err(Errno::EINTR) => continue,
            Err(e) => unreachable!("epoll_wait on a private epoll fd failed: {e}"),
        };
        for ev in &events[..n] {
            let io_fd = ev.data as i32;
            let mask = ev.events;
            probe!(Tag::IoReady, io_fd as u64, mask as u64);
            shard.n.readies.fetch_add(1, Ordering::Relaxed);
            let error = mask & (fd::EPOLLERR | fd::EPOLLHUP | fd::EPOLLRDHUP) != 0;
            let mut woken = Vec::new();
            {
                let mut fds = unpoisoned(&shard.fds);
                // No entry: the fd was closed after the kernel queued
                // this edge.
                let Some(entry) = fds.get_mut(&io_fd) else {
                    continue;
                };
                for (dir, bit) in [(Dir::Read, fd::EPOLLIN), (Dir::Write, fd::EPOLLOUT)] {
                    if error || mask & bit != 0 {
                        let list = &mut entry.waiters[dir as usize];
                        if list.is_empty() {
                            entry.ready[dir as usize] = true;
                        } else {
                            woken.append(list);
                        }
                    }
                }
            }
            for w in woken {
                shard.wake(&w, io_fd, 0);
            }
        }
    }
}
